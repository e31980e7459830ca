package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// runTrace executes a trace-replay run: arrivals come verbatim from
// the recorded sequence instead of a generator.
func runTrace(cfg Config) (*Result, error) {
	tr := cfg.Trace
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	numTypes := tr.NumTypes()
	var names []string
	if len(cfg.Mix.Types) >= numTypes {
		names = cfg.Mix.TypeNames()
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = tr.Duration() + time.Millisecond
	}

	s := sim.New()
	rec := metrics.NewRecorder(numTypes, names)
	warmup := time.Duration(float64(duration) * cfg.WarmupFraction)
	rec.SetWarmup(warmup)
	rec.SetRTT(cfg.RTT)
	rec.SetSpan(warmup, duration)

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

	// Replay lazily on the simulator's stream: each arrival schedules
	// its successor, so even a multi-million-record trace keeps one
	// arrival pending.
	next := 0
	var arrive func()
	arrive = func() {
		r := tr.Records[next]
		m.Arrive(r.Type, r.Service)
		if next++; next < tr.Len() {
			s.Stream(tr.Records[next].Offset, arrive)
		}
	}
	s.Stream(tr.Records[0].Offset, arrive)

	s.RunUntil(duration)

	busy := make([]float64, cfg.Workers)
	for i := range busy {
		busy[i] = m.WorkerUtilization(i)
	}
	return &Result{
		Policy:     policy.Name(),
		Recorder:   rec,
		Machine:    m,
		Series:     series,
		OfferedRPS: tr.Rate(),
		Duration:   duration,
		WorkerBusy: busy,
	}, nil
}
