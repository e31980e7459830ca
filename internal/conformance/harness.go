package conformance

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/trace"
)

// RunCase runs one clean differential comparison: the trace is
// generated from the spec (seeded), fed to both implementations under
// the declared policy, and compared.
func RunCase(spec TraceSpec, p sched.Spec, seed uint64) (*Report, error) {
	tr, err := spec.GenerateSeeded(seed)
	if err != nil {
		return nil, err
	}
	return runOn(spec, tr, p, seed, nil)
}

// RunMutationCase runs one detection trial: the sim models the
// mutation's declared policy, the live server runs the perturbed
// configuration, and the returned report must NOT agree.
func RunMutationCase(spec TraceSpec, mut Mutation, seed uint64) (*Report, error) {
	tr, err := spec.GenerateSeeded(seed)
	if err != nil {
		return nil, err
	}
	rep, err := runOn(spec, tr, mut.Policy, seed, &mut)
	if err != nil {
		return nil, err
	}
	rep.Mutation = mut.Name
	return rep, nil
}

func runOn(spec TraceSpec, tr *trace.Trace, p sched.Spec, seed uint64, mut *Mutation) (*Report, error) {
	simRun, err := RunSim(spec, tr, p, seed)
	if err != nil {
		return nil, fmt.Errorf("conformance: sim %s/%s: %w", spec.Name, p.Kind, err)
	}
	liveRun, err := RunLive(spec, tr, p, seed, mut)
	if err != nil {
		return nil, fmt.Errorf("conformance: live %s/%s: %w", spec.Name, p.Kind, err)
	}
	return Compare(spec, tr, simRun, liveRun, DefaultOptions(p, tr.Len())), nil
}
