package policy

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Streams hands out the random streams of a simulated run by the
// run's seed. Each stochastic decision draws from its own stream, a
// fixed offset from the seed, so a figure's cell and psp sim make the
// same draws at the same seed.
type Streams uint64

// Steer is d-FCFS's per-arrival worker steering.
func (s Streams) Steer() *rng.RNG { return rng.New(uint64(s) + 1000) }

// Steal is work stealing's victim choice.
func (s Streams) Steal() *rng.RNG { return rng.New(uint64(s) + 2000) }

// Relabel is the random classifier of Figure 9's DARC-random.
func (s Streams) Relabel() *rng.RNG { return rng.New(uint64(s) + 4000) }

// Constructor binds s to a simulated machine of workers cores serving
// types request types, returning the policy factory the simulator
// calls per run. means holds each type's mean service time, by which
// darc-static, fp and edf rank types: they need one per type. seed
// picks the stochastic policies' Streams (s.SteerSeed, when set, seeds
// d-FCFS instead). A non-zero window replaces DARC's and elastic
// DARC's profiling window.
func Constructor(s sched.Spec, workers, types int, means []time.Duration, seed, window uint64) (func() cluster.Policy, error) {
	dcfg := darc.DefaultConfig(workers)
	if window > 0 {
		dcfg.MinWindowSamples = window
	}
	streams := Streams(seed)
	ts := TSConfig{Quantum: s.Quantum, PreemptCost: time.Microsecond}
	switch s.Kind {
	case sched.KindDARCStatic, sched.KindFP, sched.KindEDF:
		if len(means) < types {
			return nil, fmt.Errorf("policy: %s ranks %d types by mean service time, given %d means", s.Kind, types, len(means))
		}
	}
	switch s.Kind {
	case sched.KindDARC:
		return func() cluster.Policy { return NewDARC(dcfg, types, 0) }, nil
	case sched.KindDARCStatic:
		reserved := s.StaticReserved
		if reserved < 0 || reserved > workers {
			return nil, fmt.Errorf("policy: darc-static needs 0<=N<=%d, got %d", workers, reserved)
		}
		return func() cluster.Policy { return NewDARCStatic(means, reserved, 0) }, nil
	case sched.KindCFCFS:
		return func() cluster.Policy { return NewCFCFS(0) }, nil
	case sched.KindDFCFS:
		if s.SteerSeed != 0 {
			return func() cluster.Policy { return NewDFCFS(rng.New(s.SteerSeed), 0) }, nil
		}
		return func() cluster.Policy { return NewDFCFS(streams.Steer(), 0) }, nil
	case sched.KindShenango:
		return func() cluster.Policy {
			return NewWorkStealing(streams.Steal(), 0, 100*time.Nanosecond)
		}, nil
	case sched.KindShinjukuSQ:
		return func() cluster.Policy { return NewTSSingleQueue(ts) }, nil
	case sched.KindShinjukuMQ:
		return func() cluster.Policy { return NewTSMultiQueue(ts, types) }, nil
	case sched.KindTSIdeal:
		total := s.PreemptOverhead
		if total < 0 {
			return nil, fmt.Errorf("policy: ts-ideal needs PreemptOverhead >= 0, got %v", total)
		}
		return func() cluster.Policy { return NewTSIdeal(total/2, total-total/2, 0) }, nil
	case sched.KindFP:
		return func() cluster.Policy { return NewFixedPriority(means, 0) }, nil
	case sched.KindSJF:
		return func() cluster.Policy { return NewSJF(0) }, nil
	case sched.KindEDF:
		return func() cluster.Policy { return NewEDF(means, 10, 0) }, nil
	case sched.KindDRR:
		return func() cluster.Policy { return NewDRR(types, 10*time.Microsecond, nil, 0) }, nil
	case sched.KindDARCElastic:
		return func() cluster.Policy { return NewElasticDARC(dcfg, types, 0) }, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %s (have %v)", s.Kind, sched.Names())
}
