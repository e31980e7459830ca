package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Figure7Phases builds the workload-change schedule of §5.5: four
// phases at 80% utilization of a 14-worker machine. Phase boundaries
// are scaled by phaseDur (the paper uses 5s per phase).
//
//	phase 1: A fast (1µs) 50%, B slow (100µs) 50%
//	phase 2: service times swap (misclassification stress)
//	phase 3: back to fast A at 99.5% / slow B at 0.5% (ratio change;
//	         DARC re-reserves for the new demand)
//	phase 4: essentially only A requests (B at 0.1%); pending B
//	         requests ride the spillway
func Figure7Phases(workers int, phaseDur time.Duration) *workload.Schedule {
	p1 := workload.TwoType("A", time.Microsecond, 0.5, "B", 100*time.Microsecond)
	p2 := workload.TwoType("A", 100*time.Microsecond, 0.5, "B", time.Microsecond)
	p3 := workload.TwoType("A", time.Microsecond, 0.995, "B", 500*time.Microsecond)
	p4 := workload.TwoType("A", time.Microsecond, 0.999, "B", 100*time.Microsecond)
	const util = 0.8
	return &workload.Schedule{Phases: []workload.Phase{
		{Mix: p1, Rate: util * p1.PeakLoad(workers), Duration: phaseDur},
		{Mix: p2, Rate: util * p2.PeakLoad(workers), Duration: phaseDur},
		{Mix: p3, Rate: util * p3.PeakLoad(workers), Duration: phaseDur},
		{Mix: p4, Rate: util * p4.PeakLoad(workers), Duration: phaseDur},
	}}
}

// reservationEvent is one Figure 7 core-allocation change.
type reservationEvent struct {
	At    time.Duration
	Cores []int // reserved core count per type
}

// Figure7 reproduces §5.5: p99.9 latency per type and guaranteed cores
// per type over time under the 4-phase schedule, for DARC and (as the
// baseline) c-FCFS.
func Figure7(opt Options) ([]*Table, error) {
	opt = opt.fill()
	const workers = 14
	// Scale the paper's 5s phases into the configured duration.
	phaseDur := opt.Duration
	sched := Figure7Phases(workers, phaseDur)
	total := sched.TotalDuration()
	window := total / 60
	if window <= 0 {
		window = 50 * time.Millisecond
	}

	// DARC with reservation tracking, and c-FCFS as the baseline.
	// DARC profiles over Options.MinWindowSamples (-profile-window),
	// the sweeps' cap, which this schedule's offered requests always
	// reach: the paper's 50k-sample windows react too slowly for short
	// phases, and the trigger rule is unchanged.
	var events []reservationEvent
	track := func(p cluster.Policy, _ policy.Streams) cluster.Policy {
		p.(*policy.DARC).OnReservationUpdate = func(now time.Duration, res *darc.Reservation) {
			cores := make([]int, 2)
			for t := 0; t < 2; t++ {
				cores[t] = len(res.ReservedFor(t))
			}
			events = append(events, reservationEvent{At: now, Cores: cores})
		}
		return p
	}
	s, err := scheduleGrid(opt, sched, workers, window, column("DARC", "darc").with(track), column("c-FCFS", "cfcfs")).run(opt)
	if err != nil {
		return nil, err
	}
	darcRes, cfcfsRes := s.Points[0].Res, s.Points[1].Res

	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	coresAt := func(at time.Duration, typ int) int {
		cores := 0 // 0 = still in startup c-FCFS
		for _, e := range events {
			if e.At > at {
				break
			}
			cores = e.Cores[typ]
		}
		return cores
	}

	t := &Table{
		Name:  "figure7",
		Title: "workload changes: p99.9 latency and guaranteed cores over time (paper Figure 7)",
		Header: []string{"t", "phase",
			"darc_A_p999", "darc_B_p999", "cores_A", "cores_B",
			"cfcfs_A_p999", "cfcfs_B_p999"},
	}
	seriesDA := darcRes.Series.Series(0, 0.999)
	seriesDB := darcRes.Series.Series(1, 0.999)
	seriesCA := cfcfsRes.Series.Series(0, 0.999)
	seriesCB := cfcfsRes.Series.Series(1, 0.999)
	for i := range seriesDA {
		at := seriesDA[i].Start
		row := []string{
			fmt.Sprintf("%.2fs", at.Seconds()),
			fmt.Sprintf("%d", sched.PhaseAt(at)+1),
			fmtDur(time.Duration(seriesDA[i].Value)),
			fmtDur(time.Duration(valueAt(seriesDB, i))),
			fmt.Sprintf("%d", coresAt(at, 0)),
			fmt.Sprintf("%d", coresAt(at, 1)),
			fmtDur(time.Duration(valueAt(seriesCA, i))),
			fmtDur(time.Duration(valueAt(seriesCB, i))),
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("DARC applied %d reservation updates across the 4 phases", len(events)))
	if len(events) >= 2 {
		// Adaptation delay after the phase-2 swap (paper: ~500ms with
		// 50k-sample windows).
		swapAt := sched.Phases[0].Duration
		for _, e := range events {
			if e.At > swapAt {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"first reservation update after the service-time swap came %.0fms into phase 2 (paper: ~500ms)",
					(e.At-swapAt).Seconds()*1000))
				break
			}
		}
	}
	return []*Table{t}, nil
}

func valueAt(pts []metrics.Point, i int) int64 {
	if i < len(pts) {
		return pts[i].Value
	}
	return 0
}

// randomClassifier relabels every arrival with a uniformly random one
// of types (Figure 9's broken classifier).
func randomClassifier(types int) Modifier {
	return func(p cluster.Policy, streams policy.Streams) cluster.Policy {
		return &policy.Relabel{Inner: p, NumTypes: types, R: streams.Relabel()}
	}
}

// Figure9 reproduces §5.6: DARC with a deliberately random classifier
// converges to c-FCFS (8 workers, High Bimodal).
func Figure9(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.HighBimodal()
	const workers = 8
	s, err := paperGrid(opt, mix, workers,
		column("c-FCFS", "cfcfs"),
		column("DARC", "darc"),
		column("DARC-random", "darc").with(randomClassifier(len(mix.Types))),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure9", "broken (random) classifier vs c-FCFS, High Bimodal, 8 workers (paper Figure 9)")
	// Shape check: DARC-random within a small factor of c-FCFS at
	// every load, DARC proper much better at high load.
	maxLoad := s.maxLoad()
	slow := func(policy string) float64 {
		return metrics.SlowdownAt(s.at(policy, maxLoad).Res.Recorder.All(), 0.999)
	}
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at %.0f%% load: c-FCFS %.1f, DARC-random %.1f (paper: similar), DARC %.1f",
		maxLoad*100, slow("c-FCFS"), slow("DARC-random"), slow("DARC")))
	noteStarved(curve, s)
	return []*Table{curve}, nil
}
