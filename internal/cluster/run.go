package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulated experiment run.
type Config struct {
	// Workers is the number of application cores (the paper's testbed
	// uses 14; its §2 simulation uses 16).
	Workers int
	// Mix is the workload; ignored if Schedule is set.
	Mix workload.Mix
	// LoadFraction expresses the arrival rate as a fraction of the
	// mix's peak load for this worker count. Ignored if Rate is set.
	LoadFraction float64
	// Rate is an absolute arrival rate in requests/second (overrides
	// LoadFraction when positive).
	Rate float64
	// Schedule, when non-nil, drives a phased workload (Figure 7) and
	// overrides Mix/LoadFraction/Rate.
	Schedule *workload.Schedule
	// Trace, when non-nil, replays a recorded arrival sequence instead
	// of generating Poisson arrivals; Mix is then only consulted for
	// type names (and may be zero).
	Trace *trace.Trace
	// Duration is the simulated horizon.
	Duration time.Duration
	// WarmupFraction of the horizon is discarded (paper: 10%).
	WarmupFraction float64
	// Seed makes the run deterministic.
	Seed uint64
	// RTT is the network round-trip added to the end-to-end latency
	// view (paper testbed: 10µs). Zero models the §2 ideal system.
	RTT time.Duration
	// NewPolicy constructs the scheduling policy under test.
	NewPolicy func() Policy
	// OnComplete optionally observes completions (time series).
	OnComplete func(r *Request, at sim.Time)
	// TrackWindow enables a built-in latency time series with the
	// given window width (0 disables it).
	TrackWindow time.Duration
}

// Result carries everything an experiment needs from one run.
type Result struct {
	Policy     string
	Recorder   *metrics.Recorder
	Machine    *Machine
	Series     *metrics.TimeSeries // nil unless Config.TrackWindow set
	OfferedRPS float64
	Duration   time.Duration
	// WorkerBusy is each worker's busy fraction over the run.
	WorkerBusy []float64
}

// Run executes one simulated experiment to completion.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("cluster: config needs positive Workers")
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("cluster: config needs NewPolicy")
	}
	if cfg.WarmupFraction < 0 || cfg.WarmupFraction >= 1 {
		return nil, fmt.Errorf("cluster: WarmupFraction %g out of [0,1)", cfg.WarmupFraction)
	}
	if cfg.Trace != nil {
		// Trace replay derives a missing Duration from the trace.
		return runTrace(cfg)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("cluster: config needs positive Duration")
	}
	var mix workload.Mix
	var rate float64
	if cfg.Schedule != nil {
		if err := cfg.Schedule.Validate(); err != nil {
			return nil, err
		}
		mix = cfg.Schedule.Phases[0].Mix
		rate = cfg.Schedule.Phases[0].Rate
	} else {
		mix = cfg.Mix
		rate = cfg.Rate
		if rate <= 0 {
			if cfg.LoadFraction <= 0 {
				return nil, fmt.Errorf("cluster: config needs Rate or LoadFraction")
			}
			rate = cfg.LoadFraction * mix.PeakLoad(cfg.Workers)
		}
	}

	s := sim.New()
	rec := metrics.NewRecorder(len(mix.Types), mix.TypeNames())
	warmup := time.Duration(float64(cfg.Duration) * cfg.WarmupFraction)
	rec.SetWarmup(warmup)
	rec.SetRTT(cfg.RTT)
	rec.SetSpan(warmup, cfg.Duration)

	policy := cfg.NewPolicy()
	m := NewMachine(s, cfg.Workers, policy, rec)

	var series *metrics.TimeSeries
	if cfg.TrackWindow > 0 {
		series = metrics.NewTimeSeries(cfg.TrackWindow)
	}
	m.OnComplete = func(r *Request, at sim.Time) {
		if series != nil {
			series.Record(at, r.Type, int64(at-r.Arrival))
		}
		if cfg.OnComplete != nil {
			cfg.OnComplete(r, at)
		}
	}

	src, err := workload.NewSource(mix, rate, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}

	// Phase switching (if scheduled).
	if cfg.Schedule != nil {
		var acc time.Duration
		for i := 1; i < len(cfg.Schedule.Phases); i++ {
			acc += cfg.Schedule.Phases[i-1].Duration
			phase := cfg.Schedule.Phases[i]
			s.At(acc, func() {
				// SetMix only fails on malformed phases, which
				// Validate already rejected.
				if err := src.SetMix(phase.Mix); err != nil {
					panic(err)
				}
				src.SetRate(phase.Rate)
			})
		}
	}

	// Open-loop arrivals on the simulator's stream: each arrival
	// schedules its successor, through the one callback.
	a := src.Next()
	var arrive func()
	arrive = func() {
		m.Arrive(a.Type, a.Service)
		a = src.Next()
		s.Stream(s.Now()+a.Gap, arrive)
	}
	s.Stream(a.Gap, arrive)

	s.RunUntil(cfg.Duration)

	busy := make([]float64, cfg.Workers)
	for i := range busy {
		busy[i] = m.WorkerUtilization(i)
	}
	return &Result{
		Policy:     policy.Name(),
		Recorder:   rec,
		Machine:    m,
		Series:     series,
		OfferedRPS: rate,
		Duration:   cfg.Duration,
		WorkerBusy: busy,
	}, nil
}
