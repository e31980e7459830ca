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
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The paper's evaluation is one kind of experiment: a sweep of
// policies over load on a fixed mix and worker count. A Grid describes
// one such sweep and its policy axis of Columns, runGrids runs its
// cells on the simulator, and each artifact renders the resulting
// points into tables. Cell.Config is the one place a simulated run is
// put together: every grid cell, Simulate and ReplayTrace call it.

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
	Policies []Column
	RTT      time.Duration
	Warmup   float64       // fraction of Horizon discarded
	Track    time.Duration // latency time-series window; 0 disables
	Horizon  time.Duration // 0 on a trace grid replays the whole trace
	Seed     uint64
	Window   WindowClamp
	// Backends and FanOuts make a fan-out grid: each cell runs
	// fanout.Run on Backends machines of Workers cores, one cell per
	// (policy, load, fan-out).
	Backends int
	FanOuts  []int
}

// WindowClamp bounds DARC's profiling window, which a run sizes from
// its offered requests (darc.AutoWindow) so the c-FCFS startup phase
// ends inside the warm-up discard. Min == Max fixes the window.
type WindowClamp struct{ Min, Max uint64 }

// SimWindow is the clamp of single runs (Simulate, and so psp sim);
// DESIGN.md §2 gives the reason for its bounds and the sweeps'.
var SimWindow = WindowClamp{Min: 500, Max: 50000}

// sweepWindow is the sweeps' clamp, up to Options.MinWindowSamples
// (5000 by default).
func (o Options) sweepWindow() WindowClamp {
	return WindowClamp{Min: 200, Max: o.MinWindowSamples}
}

// paperGrid is the testbed sweep of policies over opt's loads on mix.
func paperGrid(opt Options, mix workload.Mix, workers int, policies ...Column) *Grid {
	return &Grid{
		Mix:      mix,
		Workers:  workers,
		Loads:    opt.Loads,
		Policies: policies,
		RTT:      paperRTT,
		Warmup:   paperWarmup,
		Horizon:  opt.Duration,
		Seed:     opt.Seed,
		Window:   opt.sweepWindow(),
	}
}

// scheduleGrid runs each policy once through a phased schedule, with
// no warm-up discard and a latency time series of window track.
func scheduleGrid(opt Options, sched *workload.Schedule, workers int, track time.Duration, policies ...Column) *Grid {
	return &Grid{
		Schedule: sched,
		Workers:  workers,
		Policies: policies,
		Track:    track,
		Horizon:  sched.TotalDuration(),
		Seed:     opt.Seed,
		Window:   opt.sweepWindow(),
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
				cells = append(cells, Cell{Grid: g, Column: p, Load: load, FanOut: k, Seed: g.Seed})
			}
		}
	}
	return cells
}

// Column is one entry of a grid's policy axis: a label, the Spec
// policy.Constructor binds, and at most one modifier.
type Column struct {
	Label string
	Spec  sched.Spec
	Mod   Modifier // nil runs the Spec as Constructor builds it
}

// A Modifier makes an experiment-only variant of the policy
// policy.Constructor built for a column's Spec. The run's seed and
// DARC's window stay the builder's; a variant that draws at random
// takes its stream from streams.
type Modifier func(p cluster.Policy, streams policy.Streams) cluster.Policy

// column is the column label running spec, the experiments' own text,
// so a spec that does not parse is a programming error.
func column(label, spec string) Column {
	s, err := sched.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return Column{Label: label, Spec: s}
}

// with returns the column running c.Spec under mod.
func (c Column) with(mod Modifier) Column {
	c.Mod = mod
	return c
}

// Cell is one simulation of a grid: one policy at one load.
type Cell struct {
	Grid   *Grid
	Column Column
	Load   float64 // 0 on a schedule or trace grid
	Rate   float64 // requests/second in place of Load, when positive
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
	case c.Rate > 0:
		return c.Rate
	}
	return c.Load * g.Mix.PeakLoad(g.Workers)
}

// cost is the cell's offered requests, the runner's estimate of how
// long it takes.
func (c Cell) cost() float64 {
	return c.rate() * c.Grid.Horizon.Seconds() * float64(max(1, c.Grid.Backends))
}

func (c Cell) label() string {
	parts := []string{c.Grid.Mix.Name, c.Column.Label}
	if c.Grid.loadDriven() {
		parts = append(parts, fmt.Sprintf("@%.0f%%", c.Load*100))
	}
	if c.FanOut > 0 {
		parts = append(parts, fmt.Sprintf("k=%d", c.FanOut))
	}
	return strings.TrimSpace(strings.Join(parts, " "))
}

// Config puts the cell's run together: the cluster.Config, and the
// policy factory that binds the cell's column through
// policy.Constructor, with DARC's profiling window sized for the
// cell's offered requests inside the grid's clamp, then applies the
// column's modifier.
func (c Cell) Config() (cluster.Config, error) {
	g := c.Grid
	mix, horizon := g.Mix, g.Horizon
	types := len(mix.Types)
	switch {
	case g.Schedule != nil:
		mix = g.Schedule.Phases[0].Mix
		types = len(mix.Types)
	case g.Trace != nil:
		types = g.Trace.NumTypes()
		if horizon <= 0 {
			horizon = g.Trace.Duration()
		}
	}
	window := darc.AutoWindow(c.rate(), horizon, g.Window.Min, g.Window.Max)
	newPolicy, err := policy.Constructor(c.Column.Spec, g.Workers, types, mix.Means(), c.Seed, window)
	if err != nil {
		return cluster.Config{}, err
	}
	if mod := c.Column.Mod; mod != nil {
		build, streams := newPolicy, policy.Streams(c.Seed)
		newPolicy = func() cluster.Policy { return mod(build(), streams) }
	}
	return cluster.Config{
		Workers:        g.Workers,
		Mix:            g.Mix,
		LoadFraction:   c.Load,
		Rate:           c.Rate,
		Schedule:       g.Schedule,
		Trace:          g.Trace,
		Duration:       g.Horizon,
		WarmupFraction: g.Warmup,
		Seed:           c.Seed,
		RTT:            g.RTT,
		TrackWindow:    g.Track,
		NewPolicy:      newPolicy,
	}, nil
}

// run simulates the cell once; a fan-out cell runs the policy factory
// of its Config on every backend.
func (c Cell) run() (Point, error) {
	g := c.Grid
	pt := Point{Cell: c}
	cfg, err := c.Config()
	if err != nil {
		return pt, err
	}
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
			NewPolicy:         cfg.NewPolicy,
		})
		return pt, err
	}
	newPolicy := cfg.NewPolicy
	cfg.NewPolicy = func() cluster.Policy {
		pt.Policy = newPolicy()
		return pt.Policy
	}
	pt.Res, err = cluster.Run(cfg)
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
		if p := &s.Points[i]; p.Column.Label == policy && p.Load == load {
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
		t.Header = append(t.Header, p.Label+"_slowdown_p999")
	}
	for _, load := range s.Grid.Loads {
		row := []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprintf("%.3f", s.at(s.Grid.Policies[0].Label, load).Res.OfferedRPS/1e6),
		}
		for _, p := range s.Grid.Policies {
			row = append(row, fmtSlow(metrics.SlowdownAt(s.at(p.Label, load).Res.Recorder.All(), 0.999)))
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
		t.Header = append(t.Header, p.Label+"_short_p999", p.Label+"_long_p999")
	}
	for _, load := range s.Grid.Loads {
		row := []string{fmt.Sprintf("%.2f", load)}
		for _, p := range s.Grid.Policies {
			rec := s.at(p.Label, load).Res.Recorder
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
