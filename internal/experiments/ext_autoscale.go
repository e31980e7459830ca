package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/workload"
)

// ExtAutoscale demonstrates the paper's §6 sketch of DARC cooperating
// with a core allocator: offered load steps low → high → low while an
// elastic DARC grows and releases cores, recomputing reservations at
// every allocation change. The table tracks active cores and p99.9
// latency per type over time.
func ExtAutoscale(opt Options) ([]*Table, error) {
	opt = opt.fill()
	const maxWorkers = 14
	mix := workload.HighBimodal()
	peak := mix.PeakLoad(maxWorkers)
	phaseDur := opt.Duration
	sched := &workload.Schedule{Phases: []workload.Phase{
		{Mix: mix, Rate: 0.20 * peak, Duration: phaseDur},
		{Mix: mix, Rate: 0.75 * peak, Duration: phaseDur},
		{Mix: mix, Rate: 0.20 * peak, Duration: phaseDur},
	}}
	total := sched.TotalDuration()
	window := total / 45
	if window <= 0 {
		window = 20 * time.Millisecond
	}

	type resizeEvent struct {
		at     time.Duration
		active int
	}
	var events []resizeEvent
	allocator := func(p cluster.Policy, _ policy.Streams) cluster.Policy {
		pol := p.(*policy.ElasticDARC)
		pol.Min = 2
		pol.Interval = total / 120
		pol.OnResize = func(now time.Duration, active int) {
			events = append(events, resizeEvent{at: now, active: active})
		}
		return pol
	}
	s, err := scheduleGrid(opt, sched, maxWorkers, window, column("elastic-DARC", "darc-elastic").with(allocator)).run(opt)
	if err != nil {
		return nil, err
	}
	res, pol := s.Points[0].Res, s.Points[0].Policy.(*policy.ElasticDARC)
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	activeAt := func(at time.Duration) int {
		a := 0
		for _, e := range events {
			if e.at > at {
				break
			}
			a = e.active
		}
		return a
	}

	t := &Table{
		Name:   "ext_autoscale",
		Title:  "elastic DARC with a core allocator: load steps 20% -> 75% -> 20% of a 14-core peak",
		Header: []string{"t", "offered_frac", "active_cores", "short_p999", "long_p999"},
	}
	shortSeries := res.Series.Series(0, 0.999)
	longSeries := res.Series.Series(1, 0.999)
	for i := range shortSeries {
		at := shortSeries[i].Start
		frac := sched.Phases[sched.PhaseAt(at)].Rate / peak
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2fs", at.Seconds()),
			fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%d", activeAt(at)),
			fmtDur(time.Duration(shortSeries[i].Value)),
			fmtDur(time.Duration(valueAt(longSeries, i))),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d allocation changes; final active %d of %d cores; dropped %d",
		pol.Resizes(), pol.Active(), maxWorkers, res.Machine.Dropped()))
	// Shape check: the high phase must use more cores than the lows.
	midActive := activeAt(phaseDur + phaseDur/2)
	endActive := activeAt(total - window)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"active cores mid-burst %d vs end-of-run %d (allocator released cores when load fell)",
		midActive, endActive))
	return []*Table{t}, nil
}
