package persephone

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mix is a workload: a set of request types with occurrence ratios and
// service-time distributions.
type Mix = workload.Mix

// TypeSpec describes one request type in a Mix.
type TypeSpec = workload.TypeSpec

// Re-exported workload constructors (the paper's evaluation mixes).
var (
	// HighBimodal is Table 3's 100x-dispersion workload.
	HighBimodal = workload.HighBimodal
	// ExtremeBimodal is Table 3's 1000x-dispersion workload.
	ExtremeBimodal = workload.ExtremeBimodal
	// TPCC is Table 4's five-transaction workload.
	TPCC = workload.TPCC
	// RocksDB is §5.4.4's 50% GET / 50% SCAN workload.
	RocksDB = workload.RocksDB
)

// MixByName resolves a workload name used across the CLIs:
// "high-bimodal", "extreme-bimodal", "tpcc", "rocksdb" (with short
// aliases "high", "extreme", "tpc-c").
func MixByName(name string) (Mix, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "high-bimodal", "high":
		return HighBimodal(), nil
	case "extreme-bimodal", "extreme":
		return ExtremeBimodal(), nil
	case "tpcc", "tpc-c":
		return TPCC(), nil
	case "rocksdb":
		return RocksDB(), nil
	default:
		return Mix{}, fmt.Errorf("persephone: unknown workload %q (high-bimodal, extreme-bimodal, tpcc, rocksdb)", name)
	}
}

// FixedService returns a degenerate service-time distribution, the
// building block for custom mixes.
func FixedService(d time.Duration) rng.Dist { return rng.Fixed(d) }

// ExpService returns an exponential service-time distribution.
func ExpService(mean time.Duration) rng.Dist { return rng.Exponential(mean) }

// SimConfig configures one simulated run.
type SimConfig struct {
	// Workers is the number of simulated cores (paper testbed: 14).
	Workers int
	// Mix is the workload.
	Mix Mix
	// Policy selects the scheduler by name, with an optional argument
	// ("darc", "darc-static:2", "ts-ideal:1us"; see PolicyNames).
	Policy string
	// LoadFraction is the offered load as a fraction of the mix's
	// peak for this worker count; Rate (requests/second) overrides it.
	LoadFraction float64
	Rate         float64
	// Duration is the simulated horizon (default 1s); the first 10%
	// is discarded as warm-up.
	Duration time.Duration
	// RTT adds a fixed network round-trip to the end-to-end latency
	// view (the paper's testbed measured 10µs).
	RTT time.Duration
	// Seed makes runs reproducible (default 42).
	Seed uint64
	// ProfileWindow overrides DARC's profiling-window sample count.
	// Zero auto-scales it so the c-FCFS startup phase completes within
	// the warm-up discard (the paper's 50000-sample window assumes 20s
	// runs; shorter runs need proportionally smaller windows).
	ProfileWindow uint64
}

// TypeResult summarises one request type after a run.
type TypeResult struct {
	Name         string
	Completed    uint64
	Dropped      uint64
	P50          time.Duration
	P99          time.Duration
	P999         time.Duration
	SlowdownP999 float64
}

// SimResult summarises a simulated run.
type SimResult struct {
	Policy          string
	OfferedRPS      float64
	ThroughputRPS   float64
	Completed       uint64
	Dropped         uint64
	Utilization     float64
	OverallP999     time.Duration
	OverallSlowdown float64 // p99.9 slowdown across all requests
	Types           []TypeResult
}

// Simulate runs the discrete-event simulator once.
func Simulate(cfg SimConfig) (*SimResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	cfg.fill()
	rate := cfg.Rate
	if rate <= 0 {
		rate = cfg.LoadFraction * cfg.Mix.PeakLoad(cfg.Workers)
	}
	return simulate(cfg, cluster.Config{
		LoadFraction: cfg.LoadFraction,
		Rate:         cfg.Rate,
		Duration:     cfg.Duration,
	}, len(cfg.Mix.Types), rate, cfg.Duration)
}

// Trace is a recorded arrival sequence (see `psp trace` and the
// internal/trace package for the CSV format).
type Trace = trace.Trace

// ReplayTrace replays a recorded arrival sequence through the
// simulator under cfg's policy and worker count. The trace sets the
// type count; Mix (optional) supplies type names and the per-type
// means darc-static, fp and edf rank by; Duration (optional) truncates
// the replay. The DARC profiling window is auto-scaled from the
// trace's measured rate like Simulate does.
func ReplayTrace(tr *Trace, cfg SimConfig) (*SimResult, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("persephone: empty trace")
	}
	cfg.fill()
	horizon := cfg.Duration
	if horizon <= 0 {
		horizon = tr.Duration()
	}
	return simulate(cfg, cluster.Config{Trace: tr, Duration: cfg.Duration}, tr.NumTypes(), tr.Rate(), horizon)
}

// fill applies the worker and seed defaults Simulate and ReplayTrace
// share.
func (cfg *SimConfig) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = 14
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
}

// simulate completes run from cfg, runs it, and summarises types
// request types. Plain DARC's profiling window is sized for a run at
// rate over horizon unless cfg.ProfileWindow overrides it.
func simulate(cfg SimConfig, run cluster.Config, types int, rate float64, horizon time.Duration) (*SimResult, error) {
	spec, err := sched.ParseSpec(cfg.Policy)
	if err != nil {
		return nil, err
	}
	window := cfg.ProfileWindow
	if window == 0 {
		window = darc.AutoWindow(rate, horizon, simWindowMin, simWindowMax)
	}
	run.NewPolicy, err = policy.Constructor(spec, cfg.Workers, types, cfg.Mix.Means(), cfg.Seed, window)
	if err != nil {
		return nil, err
	}
	run.Workers = cfg.Workers
	run.Mix = cfg.Mix
	run.WarmupFraction = 0.1
	run.Seed = cfg.Seed
	run.RTT = cfg.RTT
	res, err := cluster.Run(run)
	if err != nil {
		return nil, err
	}
	out := &SimResult{
		Policy:          res.Policy,
		OfferedRPS:      res.OfferedRPS,
		ThroughputRPS:   res.Recorder.Throughput(),
		Completed:       res.Machine.Completed(),
		Dropped:         res.Machine.Dropped(),
		Utilization:     res.Machine.Utilization(),
		OverallP999:     res.Recorder.All().Latency.QuantileDuration(0.999),
		OverallSlowdown: metrics.SlowdownAt(res.Recorder.All(), 0.999),
	}
	for i := 0; i < types; i++ {
		ts := res.Recorder.Type(i)
		out.Types = append(out.Types, TypeResult{
			Name:         ts.Name,
			Completed:    ts.Completed,
			Dropped:      ts.Dropped,
			P50:          ts.Latency.QuantileDuration(0.50),
			P99:          ts.Latency.QuantileDuration(0.99),
			P999:         ts.Latency.QuantileDuration(0.999),
			SlowdownP999: metrics.SlowdownAt(ts, 0.999),
		})
	}
	return out, nil
}

// PolicyNames lists the scheduler names SimConfig.Policy accepts.
func PolicyNames() []string { return sched.Names() }

// The facade's clamp on DARC's auto-sized profiling window; DESIGN.md
// §2 gives the reason for each bound.
const (
	simWindowMin = 500
	simWindowMax = 50000
)

// ExperimentOptions tunes RunExperiment; zero value uses defaults (1s
// per load point, the paper's load grid).
type ExperimentOptions = experiments.Options

// ExperimentNames lists the reproducible artifacts ("figure1",
// "table3", ...).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures and
// prints it to w.
func RunExperiment(name string, opt ExperimentOptions, w io.Writer) error {
	return experiments.Run(name, opt, w)
}
