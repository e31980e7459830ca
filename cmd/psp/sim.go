package main

// The offline subcommands: the simulator, the paper's experiments,
// their plots, and the arrival-trace tools.

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	persephone "repro"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/svgplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simCmd runs one simulation and prints the per-type tail latency and
// slowdown summary. With -trace, arrivals come from a recorded file
// instead of a generator: an arrival trace (psp trace record) or a
// live lifecycle span dump (psp server -trace-out), so a sim-vs-live
// policy comparison is one command. -workload then only names the
// types and gives darc-static, fp and edf their means.
func simCmd(fs *flag.FlagSet) func() error {
	mix := workloadFlag(fs)
	policyName := fs.String("policy", "darc", "scheduling policy (see -policies)")
	workers := workersFlag(fs, 14)
	load := fs.Float64("load", 0.8, "offered load as a fraction of peak")
	rate := fs.Float64("rate", 0, "absolute arrival rate in requests/second (overrides -load)")
	duration := durationFlag(fs, time.Second)
	rtt := fs.Duration("rtt", 10*time.Microsecond, "network round-trip added to end-to-end latency")
	seed := seedFlag(fs, 42)
	policies := fs.Bool("policies", false, "list policies and exit")
	traceIn := fs.String("trace", "", "replay a recorded arrival trace or live span dump instead of generating arrivals")
	return func() error {
		if *policies {
			for _, p := range persephone.PolicyNames() {
				fmt.Println(p)
			}
			return nil
		}
		cfg := persephone.SimConfig{
			Workers: *workers,
			Mix:     *mix,
			Policy:  *policyName,
			RTT:     *rtt,
			Seed:    *seed,
		}
		var res *persephone.SimResult
		if *traceIn != "" {
			tr, err := readTrace(*traceIn)
			if err != nil {
				return err
			}
			if res, err = persephone.ReplayTrace(tr, cfg); err != nil {
				return err
			}
		} else {
			cfg.LoadFraction, cfg.Rate, cfg.Duration = *load, *rate, *duration
			var err error
			if res, err = persephone.Simulate(cfg); err != nil {
				return err
			}
		}
		fmt.Printf("workload   %s (peak %.3f Mrps on %d workers)\n", mix.Name, mix.PeakLoad(*workers)/1e6, *workers)
		fmt.Printf("policy     %s\n", res.Policy)
		fmt.Printf("offered    %.3f Mrps   achieved %.3f Mrps   utilization %.1f%%\n",
			res.OfferedRPS/1e6, res.ThroughputRPS/1e6, res.Utilization*100)
		fmt.Printf("completed  %d   dropped %d\n", res.Completed, res.Dropped)
		fmt.Printf("overall    p99.9 latency %v   p99.9 slowdown %.1fx\n", res.OverallP999, res.OverallSlowdown)
		fmt.Println()
		fmt.Printf("%-12s %10s %10s %12s %12s %12s %10s\n",
			"type", "completed", "dropped", "p50", "p99", "p99.9", "slowdown")
		for _, t := range res.Types {
			fmt.Printf("%-12s %10d %10d %12v %12v %12v %9.1fx\n",
				t.Name, t.Completed, t.Dropped, t.P50, t.P99, t.P999, t.SlowdownP999)
		}
		return nil
	}
}

// experimentsCmd regenerates the paper's tables and figures on the
// simulator.
func experimentsCmd(fs *flag.FlagSet) func() error {
	artifact := fs.String("artifact", "all", "artifact to regenerate (figure1..figure10, table1/3/4/5, or 'all')")
	duration := durationFlag(fs, time.Second)
	seed := seedFlag(fs, 42)
	loads := fs.String("loads", "", "comma-separated load fractions (default paper grid)")
	csvDir := fs.String("csv", "", "directory for CSV output (optional)")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (default NumCPU)")
	window := fs.Uint64("profile-window", 0, "DARC profiling window samples (default 5000)")
	list := fs.Bool("list", false, "list artifacts and exit")
	return func() error {
		if *list {
			for _, n := range persephone.ExperimentNames() {
				fmt.Println(n)
			}
			return nil
		}
		opt := persephone.ExperimentOptions{
			Duration:         *duration,
			Seed:             *seed,
			CSVDir:           *csvDir,
			Parallel:         *parallel,
			MinWindowSamples: *window,
		}
		var err error
		opt.Loads, err = parseList(*loads, func(item string) (float64, error) {
			v, err := strconv.ParseFloat(item, 64)
			if err != nil || v <= 0 || v > 1 {
				return 0, usageError{fmt.Errorf("bad load %q", item)}
			}
			return v, nil
		})
		if err != nil {
			return err
		}
		names := []string{*artifact}
		if *artifact == "all" {
			names = persephone.ExperimentNames()
		}
		for _, name := range names {
			if err := persephone.RunExperiment(name, opt, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
}

// plotCmd turns a CSV written by psp experiments into a self-contained
// SVG line chart (paper-figure shaped: load on X, p99.9 slowdown on a
// log Y).
func plotCmd(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "input CSV (from psp experiments -csv)")
	out := fs.String("out", "", "output SVG (default: input with .svg)")
	xcol := fs.String("x", "load", "X column name")
	ypat := fs.String("y", "*_slowdown_p999", "Y column glob (matches series columns)")
	logY := fs.Bool("log", true, "log-scale Y axis")
	title := fs.String("title", "", "chart title (default: file name)")
	return func() error {
		if *in == "" {
			return usageError{errors.New("psp plot: -in is required")}
		}
		return plot(*in, *out, *xcol, *ypat, *logY, *title)
	}
}

func plot(in, out, xcol, ypat string, logY bool, title string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	if len(rows) < 2 {
		return fmt.Errorf("psp plot: %s has no data rows", in)
	}
	header := rows[0]
	xi := -1
	var yis []int
	for i, h := range header {
		if h == xcol {
			xi = i
		}
		if globMatch(ypat, h) {
			yis = append(yis, i)
		}
	}
	if xi < 0 {
		return fmt.Errorf("psp plot: no column %q in %v", xcol, header)
	}
	if len(yis) == 0 {
		return fmt.Errorf("psp plot: no columns match %q in %v", ypat, header)
	}

	chart := &svgplot.Chart{
		Title:  title,
		XLabel: xcol,
		YLabel: strings.TrimPrefix(ypat, "*_"),
		LogY:   logY,
	}
	if chart.Title == "" {
		chart.Title = strings.TrimSuffix(filepath.Base(in), ".csv")
	}
	for _, yi := range yis {
		s := svgplot.Series{Name: seriesName(header[yi], ypat)}
		for _, row := range rows[1:] {
			if yi >= len(row) || xi >= len(row) {
				continue
			}
			x, errX := strconv.ParseFloat(row[xi], 64)
			y, errY := strconv.ParseFloat(row[yi], 64)
			if errX != nil || errY != nil {
				continue // non-numeric cells (e.g. "starved") are skipped
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		if len(s.X) > 0 {
			chart.Series = append(chart.Series, s)
		}
	}
	if out == "" {
		out = strings.TrimSuffix(in, ".csv") + ".svg"
	}
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := chart.Render(o); err != nil {
		o.Close()
		return err
	}
	if err := o.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d series)\n", out, len(chart.Series))
	return nil
}

// globMatch supports a single '*' wildcard.
func globMatch(pat, s string) bool {
	i := strings.IndexByte(pat, '*')
	if i < 0 {
		return pat == s
	}
	prefix, suffix := pat[:i], pat[i+1:]
	return len(s) >= len(prefix)+len(suffix) &&
		strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix)
}

// seriesName strips the glob's fixed parts from a matched column.
func seriesName(col, pat string) string {
	i := strings.IndexByte(pat, '*')
	if i < 0 {
		return col
	}
	name := strings.TrimPrefix(col, pat[:i])
	return strings.TrimSuffix(name, pat[i+1:])
}

// traceRecordCmd writes a generated arrival trace: Poisson, or an
// on/off MMPP with -bursty.
func traceRecordCmd(fs *flag.FlagSet) func() error {
	mix := workloadFlag(fs)
	rate := fs.Float64("rate", 100000, "average arrival rate (requests/second)")
	duration := durationFlag(fs, time.Second)
	seed := seedFlag(fs, 1)
	out := fs.String("out", "", "output file (default stdout)")
	bursty := fs.Bool("bursty", false, "use an on/off MMPP instead of plain Poisson")
	burstFactor := fs.Float64("burst-factor", 4, "bursty: rate multiplier during bursts")
	meanOn := fs.Duration("burst-on", 5*time.Millisecond, "bursty: mean burst length")
	meanOff := fs.Duration("burst-off", 15*time.Millisecond, "bursty: mean quiet length")
	return func() error {
		var gen trace.Generator
		if *bursty {
			b, err := workload.NewBurstySource(*mix, *rate, *burstFactor, *meanOn, *meanOff, rng.New(*seed))
			if err != nil {
				return err
			}
			gen = b
		} else {
			src, err := workload.NewSource(*mix, *rate, rng.New(*seed))
			if err != nil {
				return err
			}
			gen = sourceAdapter{src}
		}
		tr := trace.Generate(gen, *duration)
		if err := writeOut(*out, tr.Write); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d arrivals over %v (avg %.0f rps)\n", tr.Len(), tr.Duration(), tr.Rate())
		return nil
	}
}

type sourceAdapter struct{ s *workload.Source }

func (a sourceAdapter) Next() (time.Duration, int, time.Duration) {
	arr := a.s.Next()
	return arr.Gap, arr.Type, arr.Service
}

// readTrace reads an arrival trace or a live span dump, which becomes
// its arrival trace.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAuto(f)
}

// traceInfoCmd summarises an arrival trace or span dump.
func traceInfoCmd(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "trace file")
	return func() error {
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		fmt.Printf("records   %d\n", tr.Len())
		fmt.Printf("duration  %v\n", tr.Duration())
		fmt.Printf("avg rate  %.0f rps\n", tr.Rate())
		fmt.Printf("types     %d\n", tr.NumTypes())
		counts := make([]int, tr.NumTypes())
		var totalSvc time.Duration
		for _, r := range tr.Records {
			counts[r.Type]++
			totalSvc += r.Service
		}
		for i, c := range counts {
			fmt.Printf("  type %d: %d (%.1f%%)\n", i, c, 100*float64(c)/float64(tr.Len()))
		}
		fmt.Printf("offered work %.3f core-seconds\n", totalSvc.Seconds())
		return nil
	}
}

// traceScaleCmd multiplies every arrival offset of a trace by -factor.
func traceScaleCmd(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "trace file")
	factor := fs.Float64("factor", 1, "offset multiplier (<1 compresses = higher load)")
	out := fs.String("out", "", "output file (default stdout)")
	return func() error {
		tr, err := readTrace(*in)
		if err != nil {
			return err
		}
		return writeOut(*out, tr.Scale(*factor).Write)
	}
}

// traceSpansCmd prints the per-type lifecycle decomposition of a live
// span dump: where each request type's time went between ingress and
// reply.
func traceSpansCmd(fs *flag.FlagSet) func() error {
	in := fs.String("in", "", "lifecycle span dump (psp server -trace-out)")
	return func() error {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		sps, err := trace.ReadSpans(f)
		if err != nil {
			return err
		}
		if len(sps) == 0 {
			fmt.Println("no spans")
			return nil
		}
		maxType := 0
		for _, s := range sps {
			if s.Type > maxType {
				maxType = s.Type
			}
		}
		// One histogram row per type plus a trailing bucket for
		// unclassifiable requests (Type < 0).
		type row struct {
			queue, svc, sojourn metrics.Histogram
		}
		rows := make([]row, maxType+2)
		for _, s := range sps {
			i := s.Type
			if i < 0 {
				i = maxType + 1
			}
			rows[i].queue.RecordDuration(s.QueueDelay())
			rows[i].svc.RecordDuration(s.Service())
			rows[i].sojourn.RecordDuration(s.Sojourn())
		}
		fmt.Printf("spans %d  types %d\n", len(sps), maxType+1)
		for i := range rows {
			r := &rows[i]
			if r.queue.Count() == 0 {
				continue
			}
			name := fmt.Sprintf("type %d", i)
			if i == maxType+1 {
				name = "unknown"
			}
			fmt.Printf("  %-8s n=%-8d queue p50=%-12v p99.9=%-12v service p50=%-12v p99.9=%-12v sojourn p99.9=%v\n",
				name, r.queue.Count(),
				r.queue.QuantileDuration(0.5), r.queue.QuantileDuration(0.999),
				r.svc.QuantileDuration(0.5), r.svc.QuantileDuration(0.999),
				r.sojourn.QuantileDuration(0.999))
		}
		return nil
	}
}
