// Command psp-bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the simulator or the live runtime would
// see, and a per-layer budget measured from outside the program under
// test. README.md defines every metric and says which layer should move
// which end-to-end number on which workload.
//
// With -workload it runs one workload in this process and prints, after
// the named metrics, one JSON object as the last line of standard
// output (the contract BENCHMARK.json's driver reads). Without it, or
// with -repeat, it runs the selected workloads one fresh process each
// and prints a summary.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// options are the knobs of one in-process run.
type options struct {
	seed      int64
	seconds   int
	setups    int    // times set-up runs; setup_s is their median
	outDir    string // span files of the traced pass; empty writes none
	benchtime string // per micro-benchmark, in testing's -benchtime syntax
	log       io.Writer
}

// metricValue and result are the driver's output format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("psp-bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run this workload in-process and print a JSON result last; empty selects all five")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Int("seconds", 18, "length of the measured interval, whole seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, shipped defaults; 1: per-layer metrics, with the traced pass")
	repeat := fs.Int("repeat", 0, "self-check: run the selection K times end to end and fail if a metric spreads beyond its bound")
	outDir := fs.String("out", "bench/out", "directory for the traced pass's span files")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need -seconds >= 1 and -trace 0 or 1"))
	}
	if *workload == "" || *repeat > 0 {
		selected := workloadNames
		if *workload != "" {
			selected = []string{*workload}
		}
		if err := runSuite(selected, *seed, *seconds, *repeat, *outDir); err != nil {
			fatal(err)
		}
		return
	}

	o := options{seed: *seed, seconds: *seconds, setups: 6, outDir: *outDir, benchtime: "200ms", log: os.Stdout}
	printHost(o.log, *workload, *seed)
	res, err := runWorkload(*workload, *trace == 1, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psp-bench:", err)
	os.Exit(1)
}

// runWorkload measures one workload in this process and shapes what it
// found into the driver's format: every end-to-end metric, or with
// perLayerPass every per-layer metric.
func runWorkload(name string, perLayerPass bool, o options) (*result, error) {
	var lr *measurement
	var err error
	switch {
	case name == wlSim && !perLayerPass:
		lr, err = runSim(o.seed, o.seconds, o.setups)
	case name == wlSim:
		lr, err = runSim(o.seed, o.seconds, 1)
		if err == nil {
			err = addMicros(lr, o)
		}
	case !perLayerPass:
		lr, err = runEndToEnd(liveSpecs[name], o)
	default:
		lr, err = runPerLayer(liveSpecs[name], o)
	}
	if err != nil {
		return nil, err
	}

	defs, got := endToEnd, lr.e2e
	if perLayerPass {
		defs, got = perLayer, lr.layers
	}
	res := &result{Correct: len(lr.errs) == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !perLayerPass {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(o.log, "%-44s %16.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(o.log, "%s: attempted %d, failed %d, measured in %d windows of 1 s (rounds, for the simulator); OK samples per window: type 0 %.0f, type 1 %.0f\n",
		name, lr.attempted, lr.failed, lr.windows, lr.perWindow[0], lr.perWindow[1])
	for _, e := range lr.errs {
		fmt.Fprintf(o.log, "INCORRECT: %v\n", e)
	}
	return res, nil
}

// runEndToEnd builds the workload o.setups times from scratch and
// measures every rig with the shipped defaults for its share of the
// interval. The windows of all rigs reduce together, and set-up time is
// the median over the rigs.
func runEndToEnd(spec liveSpec, o options) (*measurement, error) {
	rnd := rand.New(rand.NewSource(o.seed))
	rigs := min(o.setups, o.seconds)
	var setup []float64
	var runs []*liveRun
	for i := 0; i < rigs; i++ {
		r, err := newRig(spec, rnd, false)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.setup.Seconds())
		share := o.seconds / rigs
		if i < o.seconds%rigs {
			share++
		}
		runs = append(runs, r.measure(share))
	}
	res := reduce(runs...)
	res.e2e["setup_s"] = median(setup)
	reportValidity(o.log, res)
	return res, nil
}

// lateWarnUs is the generator lateness beyond which a run measured the
// host's scheduler more than the program.
const lateWarnUs = 2000

// reportValidity prints how late the generator ran and how often the
// host stalled, loudly when either puts the numbers in doubt.
func reportValidity(w io.Writer, res *measurement) {
	fmt.Fprintf(w, "generator lateness: p99 %.0f us, max %.0f us; the host stalled in %.0f of %d windows\n",
		res.layers["client.late_p99_us"], res.layers["client.late_max_us"], res.layers["client.stalled_windows"], res.windows)
	if 2*int(res.layers["client.stalled_windows"]) > res.windows {
		fmt.Fprintf(w, "WARNING: *** the host stalled in most windows: every window was kept, and these numbers measure the host ***\n")
	}
	if res.layers["client.late_p99_us"] > lateWarnUs {
		fmt.Fprintf(w, "WARNING: *** the load generator ran late (p99 %.0f us > %d us): these numbers measure the host's scheduler ***\n",
			res.layers["client.late_p99_us"], lateWarnUs)
	}
}

// minPolicyRatio is how much worse c-FCFS must make the short tail of
// the heavy-tailed workload than DARC does; the paper's ordering.
const minPolicyRatio = 1.5

// runPerLayer splits the interval into passes of equal length: one with
// the shipped defaults, which gives the trailer, counter and runtime
// numbers; one traced, which gives the stage spans and, against the
// first, the cost of tracing; and on the heavy-tailed workload a replay
// of the same schedule against c-FCFS.
func runPerLayer(spec liveSpec, o options) (*measurement, error) {
	passes := 2
	if spec.name == wlHeavyTail {
		passes = 3
	}
	n := max(o.seconds/passes, 1)
	// Every pass replays the same inputs.
	pass := func(spec liveSpec, traced bool) (*liveRun, *measurement, error) {
		r, err := newRig(spec, rand.New(rand.NewSource(o.seed)), traced)
		if err != nil {
			return nil, nil, err
		}
		run := r.measure(n)
		return run, reduce(run), nil
	}

	_, res, err := pass(spec, false)
	if err != nil {
		return nil, err
	}
	reportValidity(o.log, res)

	trun, tres, err := pass(spec, true)
	if err != nil {
		return nil, err
	}
	stageM, stageSum := stageMetrics(trun.spans)
	maps.Copy(res.layers, stageM)
	res.layers["psp.trace_lost"] = tres.layers["psp.trace_lost"]
	res.layers["trace.goodput_ratio"] = tres.e2e["goodput_rps"] / res.e2e["goodput_rps"]
	fmt.Fprintf(o.log, "traced pass: %d server spans; sum of stage medians %.0f ns against psp.sojourn_p50_ns %.0f ns (unexplained %.0f ns); client p50 %.0f ns leaves %.0f ns outside the server\n",
		len(trun.spans), stageSum, stageM["psp.sojourn_p50_ns"], stageM["psp.sojourn_p50_ns"]-stageSum,
		tres.e2e["short_p50_us"]*1e3, tres.e2e["short_p50_us"]*1e3-stageM["psp.sojourn_p50_ns"])
	if o.outDir != "" {
		if err := writeSpans(o.outDir, trun); err != nil {
			return nil, err
		}
	}
	res.absorb(tres)

	if spec.name == wlHeavyTail {
		cf := spec
		cf.cfcfs = true
		_, cres, err := pass(cf, false)
		if err != nil {
			return nil, err
		}
		ratio := cres.e2e["short_p99_us"] / res.e2e["short_p99_us"]
		res.layers["policy.cfcfs_over_darc_short_p99_ratio"] = ratio
		if ratio < minPolicyRatio {
			res.errs = append(res.errs, fmt.Errorf("c-FCFS short p99 is %.2fx DARC's, want >= %.1fx", ratio, minPolicyRatio))
		}
		res.absorb(cres)
	}
	return res, addMicros(res, o)
}

// absorb adds another pass's ledger and errors to res.
func (res *measurement) absorb(other *measurement) {
	res.attempted += other.attempted
	res.failed += other.failed
	res.errs = append(res.errs, other.errs...)
}

func addMicros(res *measurement, o options) error {
	m, err := runMicros(o.benchtime)
	maps.Copy(res.layers, m)
	return err
}

// printHost records where and with what the numbers were taken.
func printHost(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), kernelRelease())
	fmt.Fprintf(w, "run: workload=%s seed=%d (all traffic over the loopback interface, servers and clients in this process)\n", workload, seed)
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// runSuite runs each selected workload in a fresh process of this
// binary, as the driver does: once end to end and once per layer, or
// with repeat > 0 end to end repeat times on consecutive seeds,
// followed by the spread of every metric against its bound.
func runSuite(selected []string, seed int64, seconds, repeat int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(name string, seed int64, trace int) (*result, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: no result (%v)", name, errors.Join(runErr, err))
		}
		return &res, nil
	}

	allCorrect := true
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for _, name := range selected {
		values[name] = map[string][]float64{}
		for i := 0; i < max(repeat, 1); i++ {
			res, err := child(name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			allCorrect = allCorrect && res.Correct
			for _, d := range endToEnd {
				values[name][d.Name] = append(values[name][d.Name], res.Metrics[d.Name].Value)
			}
		}
		if repeat == 0 {
			res, err := child(name, seed, 1)
			if err != nil {
				return err
			}
			allCorrect = allCorrect && res.Correct
		}
	}

	fmt.Printf("\n%-24s %-14s %14s %14s %14s %9s %7s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	withinBounds := true
	for _, name := range selected {
		for _, d := range endToEnd {
			xs := values[name][d.Name]
			med := median(xs)
			spread := (xs[len(xs)-1] - xs[0]) / med
			verdict := ""
			if repeat > 0 && spread > d.Bound {
				verdict, withinBounds = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-24s %-14s %14.4f %14.4f %14.4f %8.1f%% %6.0f%%%s\n", name, d.Name, xs[0], med, xs[len(xs)-1], 100*spread, 100*d.Bound, verdict)
		}
	}
	switch {
	case !allCorrect:
		return errors.New("a run reported incorrect results")
	case !withinBounds:
		return errors.New("a metric spread beyond its bound between identical runs")
	}
	return nil
}
