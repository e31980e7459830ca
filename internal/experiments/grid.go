package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/fanout"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The paper's evaluation is one kind of experiment: a sweep of
// policies over load on a fixed mix and worker count. A Grid describes
// one such sweep, runGrids runs its cells on the simulator, and each
// artifact renders the resulting points into tables. Cells are the one
// place a cluster.Config or a RunCtx is built.

// The paper's testbed (§5): a 10 µs network round trip and the first
// 10 % of every run discarded as warm-up.
const (
	paperRTT    = 10 * time.Microsecond
	paperWarmup = 0.1
)

// Grid is one sweep: every policy at every load on one machine.
type Grid struct {
	Mix      workload.Mix
	Schedule *workload.Schedule // drives arrivals instead of Mix and Loads
	Trace    *trace.Trace       // replays arrivals instead of Loads
	Workers  int
	Loads    []float64
	Policies []PolicySpec
	RTT      time.Duration
	Warmup   float64       // fraction of Horizon discarded
	Track    time.Duration // latency time-series window; 0 disables
	Horizon  time.Duration
	Seed     uint64
	// WindowCap is Options.MinWindowSamples (see RunCtx).
	WindowCap uint64
	// Backends and FanOuts make a fan-out grid: each cell runs
	// fanout.Run on Backends machines of Workers cores, one cell per
	// (policy, load, fan-out).
	Backends int
	FanOuts  []int
}

// paperGrid is the testbed sweep of policies over opt's loads on mix.
func paperGrid(opt Options, mix workload.Mix, workers int, policies ...PolicySpec) *Grid {
	return &Grid{
		Mix:       mix,
		Workers:   workers,
		Loads:     opt.Loads,
		Policies:  policies,
		RTT:       paperRTT,
		Warmup:    paperWarmup,
		Horizon:   opt.Duration,
		Seed:      opt.Seed,
		WindowCap: opt.MinWindowSamples,
	}
}

// scheduleGrid runs each policy once through a phased schedule, with
// no warm-up discard and a latency time series of window track.
func scheduleGrid(opt Options, sched *workload.Schedule, workers int, track time.Duration, policies ...PolicySpec) *Grid {
	return &Grid{
		Schedule:  sched,
		Workers:   workers,
		Policies:  policies,
		Track:     track,
		Horizon:   sched.TotalDuration(),
		Seed:      opt.Seed,
		WindowCap: opt.MinWindowSamples,
	}
}

// loadDriven reports whether the grid's arrivals are Poisson at a
// fraction of the mix's peak, so each cell's arrivals per type are
// known in advance.
func (g *Grid) loadDriven() bool { return g.Schedule == nil && g.Trace == nil }

// cells expands the grid, policy-major, then load, then fan-out.
func (g *Grid) cells() []Cell {
	loads := g.Loads
	if !g.loadDriven() {
		loads = []float64{0}
	}
	fanOuts := g.FanOuts
	if len(fanOuts) == 0 {
		fanOuts = []int{0}
	}
	var cells []Cell
	for _, p := range g.Policies {
		for _, load := range loads {
			for _, k := range fanOuts {
				cells = append(cells, Cell{Grid: g, Spec: p, Load: load, FanOut: k, Seed: g.Seed})
			}
		}
	}
	return cells
}

// RunCtx carries the parameters of one simulation run into policy
// constructors: stochastic policies need the seed, and DARC sizes its
// profiling window from the arrival rate so the c-FCFS startup phase
// always completes inside the warm-up discard.
type RunCtx struct {
	Seed     uint64
	Rate     float64 // offered requests/second
	Duration time.Duration
	// WindowCap is Options.MinWindowSamples, the upper bound on DARC's
	// auto-scaled profiling window.
	WindowCap uint64
}

// The sweeps' clamp on DARC's auto-sized profiling window; DESIGN.md
// §2 gives the reason for each bound.
const (
	sweepWindowMin = 200
	sweepWindowCap = 5000
)

// DARCWindow returns the profiling-window size for this run:
// darc.AutoWindow clamped to [sweepWindowMin, WindowCap].
func (c RunCtx) DARCWindow() uint64 {
	hi := c.WindowCap
	if hi == 0 {
		hi = sweepWindowCap
	}
	return darc.AutoWindow(c.Rate, c.Duration, sweepWindowMin, hi)
}

// PolicySpec is one entry of a grid's policy axis: a column label and
// a constructor bound to the cell's RunCtx.
type PolicySpec struct {
	Name string
	New  func(ctx RunCtx) cluster.Policy
}

// Cell is one simulation of a grid: one policy at one load.
type Cell struct {
	Grid   *Grid
	Spec   PolicySpec
	Load   float64 // 0 on a schedule or trace grid
	FanOut int     // 0 outside a fan-out grid
	Seed   uint64
}

// rate is the cell's offered requests per second on one machine.
func (c Cell) rate() float64 {
	g := c.Grid
	switch {
	case g.Trace != nil:
		return g.Trace.Rate()
	case g.Schedule != nil:
		var n float64
		for _, ph := range g.Schedule.Phases {
			n += ph.Rate * ph.Duration.Seconds()
		}
		return n / g.Schedule.TotalDuration().Seconds()
	}
	return c.Load * g.Mix.PeakLoad(g.Workers)
}

// cost is the cell's offered requests, the runner's estimate of how
// long it takes.
func (c Cell) cost() float64 {
	return c.rate() * c.Grid.Horizon.Seconds() * float64(max(1, c.Grid.Backends))
}

func (c Cell) ctx() RunCtx {
	return RunCtx{Seed: c.Seed, Rate: c.rate(), Duration: c.Grid.Horizon, WindowCap: c.Grid.WindowCap}
}

func (c Cell) label() string {
	parts := []string{c.Grid.Mix.Name, c.Spec.Name}
	if c.Grid.loadDriven() {
		parts = append(parts, fmt.Sprintf("@%.0f%%", c.Load*100))
	}
	if c.FanOut > 0 {
		parts = append(parts, fmt.Sprintf("k=%d", c.FanOut))
	}
	return strings.TrimSpace(strings.Join(parts, " "))
}

// run simulates the cell once.
func (c Cell) run() (Point, error) {
	g := c.Grid
	ctx := c.ctx()
	pt := Point{Cell: c}
	var err error
	if c.FanOut > 0 {
		pt.Fanout, err = fanout.Run(fanout.Config{
			Backends:          g.Backends,
			FanOut:            c.FanOut,
			WorkersPerBackend: g.Workers,
			Mix:               g.Mix,
			ShardLoad:         c.Load,
			Duration:          g.Horizon,
			WarmupFraction:    g.Warmup,
			Seed:              c.Seed,
			NewPolicy:         func() cluster.Policy { return c.Spec.New(ctx) },
		})
		return pt, err
	}
	pt.Res, err = cluster.Run(cluster.Config{
		Workers:        g.Workers,
		Mix:            g.Mix,
		LoadFraction:   c.Load,
		Schedule:       g.Schedule,
		Trace:          g.Trace,
		Duration:       g.Horizon,
		WarmupFraction: g.Warmup,
		Seed:           c.Seed,
		RTT:            g.RTT,
		TrackWindow:    g.Track,
		NewPolicy: func() cluster.Policy {
			pt.Policy = c.Spec.New(ctx)
			return pt.Policy
		},
	})
	if err == nil && g.loadDriven() {
		pt.Starved = c.starved(pt.Res)
	}
	return pt, err
}

// starved names the types whose completions fell under half their
// expected arrivals (Figure 4's rule). Slowdown is measured on
// completed requests only, so a configuration that starves a type
// would otherwise look good just because the survivors were fast.
func (c Cell) starved(res *cluster.Result) []string {
	g := c.Grid
	measured := g.Horizon.Seconds() * (1 - g.Warmup)
	var names []string
	for ti, ts := range g.Mix.Types {
		expected := c.rate() * ts.Ratio * measured
		if float64(res.Recorder.Type(ti).Completed) < expected*0.5 {
			names = append(names, ts.Name)
		}
	}
	return names
}

// Point is a run cell.
type Point struct {
	Cell
	Res     *cluster.Result // nil on a fan-out grid
	Fanout  *fanout.Result  // set only on a fan-out grid
	Policy  cluster.Policy  // the instance the run used (nil on a fan-out grid)
	Starved []string        // starved type names; load-driven grids only
}

// Sweep is a run grid: its points in cell order.
type Sweep struct {
	Grid   *Grid
	Points []Point
}

// run runs one grid.
func (g *Grid) run(opt Options) (*Sweep, error) {
	s, err := runGrids(opt, g)
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// runGrids runs every cell of grids, at most opt.Parallel at a time
// and the longest first, and returns one Sweep per grid.
func runGrids(opt Options, grids ...*Grid) ([]*Sweep, error) {
	opt = opt.fill()
	var cells []Cell
	for _, g := range grids {
		cells = append(cells, g.cells()...)
	}
	pts, err := runCells(opt.Parallel, cells, longestFirst(cells))
	if err != nil {
		return nil, err
	}
	sweeps := make([]*Sweep, len(grids))
	for i, g := range grids {
		n := len(g.cells())
		sweeps[i] = &Sweep{Grid: g, Points: pts[:n:n]}
		pts = pts[n:]
	}
	return sweeps, nil
}

// longestFirst orders cell indices by descending cost, ties by index.
func longestFirst(cells []Cell) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].cost() > cells[order[b]].cost()
	})
	return order
}

// runCells runs cells in the given order on at most parallel
// goroutines. Points come back by cell index, so the order cannot
// reach the output; the error is the lowest-indexed cell's.
func runCells(parallel int, cells []Cell, order []int) ([]Point, error) {
	pts := make([]Point, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(parallel, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pts[i], errs[i] = cells[i].run()
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].label(), err)
		}
	}
	return pts, nil
}

// at returns the point of policy at load, or nil.
func (s *Sweep) at(policy string, load float64) *Point {
	for i := range s.Points {
		if p := &s.Points[i]; p.Spec.Name == policy && p.Load == load {
			return p
		}
	}
	return nil
}

// maxLoad is the grid's highest (last) load.
func (s *Sweep) maxLoad() float64 { return s.Grid.Loads[len(s.Grid.Loads)-1] }

// noteStarved appends a note to t for each starved point of sweeps.
// Figure 4 renders starvation in its cells instead.
func noteStarved(t *Table, sweeps ...*Sweep) {
	for _, s := range sweeps {
		for _, p := range s.Points {
			if len(p.Starved) > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s starved %s: completions under half of arrivals, so its tail counts only the survivors",
					p.label(), strings.Join(p.Starved, ", ")))
			}
		}
	}
}

// slowdownCurve renders a sweep as one row per load with a column per
// policy carrying the p99.9 slowdown across all requests.
func (s *Sweep) slowdownCurve(name, title string) *Table {
	t := &Table{Name: name, Title: title, Header: []string{"load", "offered_Mrps"}}
	for _, p := range s.Grid.Policies {
		t.Header = append(t.Header, p.Name+"_slowdown_p999")
	}
	for _, load := range s.Grid.Loads {
		row := []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprintf("%.3f", s.at(s.Grid.Policies[0].Name, load).Res.OfferedRPS/1e6),
		}
		for _, p := range s.Grid.Policies {
			row = append(row, fmtSlow(metrics.SlowdownAt(s.at(p.Name, load).Res.Recorder.All(), 0.999)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// typedLatency renders per-type p99.9 latency columns for a bimodal
// sweep: one row per load, per policy a (short, long) pair.
func (s *Sweep) typedLatency(name, title string) *Table {
	longIdx := len(s.Grid.Mix.Types) - 1
	t := &Table{Name: name, Title: title, Header: []string{"load"}}
	for _, p := range s.Grid.Policies {
		t.Header = append(t.Header, p.Name+"_short_p999", p.Name+"_long_p999")
	}
	for _, load := range s.Grid.Loads {
		row := []string{fmt.Sprintf("%.2f", load)}
		for _, p := range s.Grid.Policies {
			rec := s.at(p.Name, load).Res.Recorder
			row = append(row,
				fmtDur(rec.Type(0).Latency.QuantileDuration(0.999)),
				fmtDur(rec.Type(longIdx).Latency.QuantileDuration(0.999)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// sustainable reports the highest swept load whose p99.9 slowdown
// stays at or below target for the given policy (0 if none).
func (s *Sweep) sustainable(policy string, target float64) float64 {
	best := 0.0
	for _, load := range s.Grid.Loads {
		p := s.at(policy, load)
		if p != nil && metrics.SlowdownAt(p.Res.Recorder.All(), 0.999) <= target && load > best {
			best = load
		}
	}
	return best
}
