// Package experiments regenerates every table and figure of the
// paper's evaluation on the discrete-event simulator: workload
// definitions (Tables 3-4), policy taxonomies (Tables 1 and 5), the §2
// motivation simulation (Figure 1), the Perséphone-internal policy
// comparison (Figure 3), the non-work-conservation ablation (Figure
// 4), the cross-system comparisons (Figures 5a/5b/6/8), the
// workload-change and broken-classifier robustness experiments
// (Figures 7 and 9), and the preemption-overhead study (Figure 10).
//
// Each experiment returns one or more Tables that print the same rows
// or series the paper reports, and can be written as CSV for plotting.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Options tunes experiment execution. The zero value is usable.
type Options struct {
	// Duration is the simulated horizon per load point (default 1s;
	// the paper runs 20s but distributions stabilize much earlier).
	Duration time.Duration
	// Seed drives every run (same seed → same arrival sequences across
	// policies, so comparisons are paired).
	Seed uint64
	// Loads are the offered-load fractions to sweep (default the
	// paper-style 10%..95% grid).
	Loads []float64
	// Parallel bounds concurrent simulation runs (default NumCPU).
	Parallel int
	// CSVDir, when set, receives one CSV file per table.
	CSVDir string
	// MinWindowSamples sets DARC's profiling window (default 5000;
	// the paper uses 50000 over 20s runs — scale it with Duration).
	MinWindowSamples uint64
}

func (o Options) fill() Options {
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if o.MinWindowSamples == 0 {
		o.MinWindowSamples = sweepWindowCap
	}
	return o
}

// Table is a printable experiment artifact.
type Table struct {
	// Name is the artifact's identifier ("figure1", "table3", ...).
	Name string
	// Title is the human-readable caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carries shape observations vs the paper's claims.
	Notes []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table to dir/<name>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return os.WriteFile(filepath.Join(dir, t.Name+".csv"), []byte(b.String()), 0o644)
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Emit prints tables to w and writes CSVs when configured.
func Emit(w io.Writer, opt Options, tables ...*Table) error {
	for _, t := range tables {
		t.Fprint(w)
		if opt.CSVDir != "" {
			if err := t.WriteCSV(opt.CSVDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunCtx carries the parameters of one simulation run into policy
// constructors: stochastic policies need the seed, and DARC sizes its
// profiling window from the arrival rate so the c-FCFS startup phase
// always completes inside the warm-up discard.
type RunCtx struct {
	Seed     uint64
	Rate     float64 // offered requests/second
	Duration time.Duration
	Workers  int
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

// PolicySpec names a policy constructor for sweeps.
type PolicySpec struct {
	Name string
	New  func(ctx RunCtx) cluster.Policy
}

// runPoint is one (policy, load) cell of a sweep.
type runPoint struct {
	Policy string
	Load   float64
	Res    *cluster.Result
	Err    error
}

// sweep simulates every (policy, load) combination, in parallel.
func sweep(opt Options, base cluster.Config, mix workload.Mix, specs []PolicySpec) ([]runPoint, error) {
	opt = opt.fill()
	var points []runPoint
	for _, spec := range specs {
		for _, load := range opt.Loads {
			points = append(points, runPoint{Policy: spec.Name, Load: load})
		}
	}
	sem := make(chan struct{}, opt.Parallel)
	var wg sync.WaitGroup
	for i := range points {
		i := i
		spec := specs[i/len(opt.Loads)]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := base
			cfg.Mix = mix
			cfg.LoadFraction = points[i].Load
			cfg.Duration = opt.Duration
			cfg.Seed = opt.Seed
			cfg.WarmupFraction = 0.1
			ctx := RunCtx{
				Seed:      opt.Seed,
				Rate:      points[i].Load * mix.PeakLoad(cfg.Workers),
				Duration:  opt.Duration,
				Workers:   cfg.Workers,
				WindowCap: opt.MinWindowSamples,
			}
			cfg.NewPolicy = func() cluster.Policy { return spec.New(ctx) }
			res, err := cluster.Run(cfg)
			points[i].Res = res
			points[i].Err = err
		}()
	}
	wg.Wait()
	for _, p := range points {
		if p.Err != nil {
			return nil, fmt.Errorf("%s @%.0f%%: %w", p.Policy, p.Load*100, p.Err)
		}
	}
	return points, nil
}

// slowdownCurveTable renders a sweep as one row per load with a column
// per policy carrying the p99.9 slowdown across all requests.
func slowdownCurveTable(name, title string, opt Options, points []runPoint, specs []PolicySpec) *Table {
	opt = opt.fill()
	t := &Table{Name: name, Title: title}
	t.Header = append(t.Header, "load", "offered_Mrps")
	for _, s := range specs {
		t.Header = append(t.Header, s.Name+"_slowdown_p999")
	}
	byKey := indexPoints(points)
	for _, load := range opt.Loads {
		row := []string{fmt.Sprintf("%.2f", load)}
		first := byKey[key(specs[0].Name, load)]
		row = append(row, fmt.Sprintf("%.3f", first.Res.OfferedRPS/1e6))
		for _, s := range specs {
			p := byKey[key(s.Name, load)]
			row = append(row, fmtSlow(metrics.SlowdownAt(p.Res.Recorder.All(), 0.999)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func indexPoints(points []runPoint) map[string]runPoint {
	m := make(map[string]runPoint, len(points))
	for _, p := range points {
		m[key(p.Policy, p.Load)] = p
	}
	return m
}

func key(policy string, load float64) string {
	return fmt.Sprintf("%s|%.4f", policy, load)
}

func fmtSlow(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtDur(d time.Duration) string {
	us := float64(d) / float64(time.Microsecond)
	switch {
	case us >= 10000:
		return fmt.Sprintf("%.0fus", us)
	case us >= 100:
		return fmt.Sprintf("%.0fus", us)
	default:
		return fmt.Sprintf("%.2fus", us)
	}
}

// sustainableLoad reports the highest swept load whose p99.9 slowdown
// stays at or below target for the given policy (0 if none).
func sustainableLoad(opt Options, points []runPoint, policy string, target float64) float64 {
	opt = opt.fill()
	byKey := indexPoints(points)
	best := 0.0
	for _, load := range opt.Loads {
		p, ok := byKey[key(policy, load)]
		if !ok {
			continue
		}
		if metrics.SlowdownAt(p.Res.Recorder.All(), 0.999) <= target && load > best {
			best = load
		}
	}
	return best
}

// typeIndexByName resolves a type index in a mix, panicking on
// programmer error (experiments reference their own mixes).
func typeIndexByName(mix workload.Mix, name string) int {
	i := mix.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("experiments: mix %q has no type %q", mix.Name, name))
	}
	return i
}

// sortedNames returns map keys in sorted order (stable output).
func sortedNames[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
