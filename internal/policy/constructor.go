package policy

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Constructor binds s to a simulated machine of workers cores serving
// types request types, returning the policy factory the simulator
// calls per run. means holds each type's mean service time, by which
// darc-static, fp and edf rank types. seed feeds the stochastic
// policies: d-FCFS steers from seed+1 (s.SteerSeed when set), work
// stealing from seed+2. A non-zero window replaces plain DARC's
// profiling window.
func Constructor(s sched.Spec, workers, types int, means []time.Duration, seed, window uint64) (func() cluster.Policy, error) {
	switch s.Kind {
	case sched.KindDARC:
		dcfg := darc.DefaultConfig(workers)
		if window > 0 {
			dcfg.MinWindowSamples = window
		}
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
		steer := seed + 1
		if s.SteerSeed != 0 {
			steer = s.SteerSeed
		}
		return func() cluster.Policy { return NewDFCFS(rng.New(steer), 0) }, nil
	case sched.KindShenango:
		return func() cluster.Policy {
			return NewWorkStealing(rng.New(seed+2), 0, 100*time.Nanosecond)
		}, nil
	case sched.KindShinjukuSQ:
		return func() cluster.Policy {
			return NewTSSingleQueue(TSConfig{Quantum: 5 * time.Microsecond, PreemptCost: time.Microsecond})
		}, nil
	case sched.KindShinjukuMQ:
		return func() cluster.Policy {
			return NewTSMultiQueue(TSConfig{Quantum: 5 * time.Microsecond, PreemptCost: time.Microsecond}, types)
		}, nil
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
		return func() cluster.Policy {
			return NewElasticDARC(darc.DefaultConfig(workers), types, 0)
		}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %s (have %v)", s.Kind, sched.Names())
}
