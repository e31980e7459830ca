package conformance

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simDrainSlack extends the simulated horizon past the last arrival so
// every queued request completes and the sim's per-type counts are
// exactly comparable to the trace (sized for the exponential mix's
// service tail plus residual queueing at ρ≈0.55).
const simDrainSlack = 800 * time.Millisecond

// SimRun is the simulator half of one differential comparison.
type SimRun struct {
	Policy   string
	Arrived  uint64
	Complete uint64
	Dropped  uint64
	// PerType counts completions per type over the whole run.
	PerType []uint64
	// QueueDelays holds post-warmup queueing delays per type.
	QueueDelays [][]time.Duration
}

// simPolicy builds the simulator policy for a conformance case. The
// DARC window is scaled to the trace so the controller leaves its
// c-FCFS startup mode well inside the warmup fraction.
func simPolicy(spec TraceSpec, tr *trace.Trace, name string, seed uint64) (func() cluster.Policy, error) {
	switch name {
	case "darc":
		dcfg := darc.DefaultConfig(spec.Workers)
		dcfg.MinWindowSamples = simWindow(tr.Len())
		n := tr.NumTypes()
		return func() cluster.Policy { return policy.NewDARC(dcfg, n, 0) }, nil
	case "darc-static":
		means := spec.means()
		reserved := spec.StaticReserved
		return func() cluster.Policy { return policy.NewDARCStatic(means, reserved, 0) }, nil
	case "cfcfs":
		return func() cluster.Policy { return policy.NewCFCFS(0) }, nil
	case "dfcfs":
		return func() cluster.Policy { return policy.NewDFCFS(rng.New(seed|1), 0) }, nil
	}
	return nil, fmt.Errorf("conformance: unknown policy %q", name)
}

// simWindow clamps the DARC profiling window to ~1/6 of the trace:
// large enough that the demand-share estimate is stable, small enough
// that the first reservation installs well inside the warmup fraction
// (post-cut samples must never see the c-FCFS startup mode the live
// side already left during its warmup phase).
func simWindow(records int) uint64 {
	w := uint64(records / 6)
	if w < 48 {
		w = 48
	}
	if w > 128 {
		w = 128
	}
	return w
}

// RunSim replays the trace through the discrete-event simulator under
// the named policy and collects the comparator's inputs.
func RunSim(spec TraceSpec, tr *trace.Trace, policyName string, seed uint64) (*SimRun, error) {
	newPolicy, err := simPolicy(spec, tr, policyName, seed)
	if err != nil {
		return nil, err
	}
	numTypes := tr.NumTypes()
	run := &SimRun{
		Policy:      policyName,
		PerType:     make([]uint64, numTypes),
		QueueDelays: make([][]time.Duration, numTypes),
	}
	cut := spec.warmupCut()
	res, err := cluster.Run(cluster.Config{
		Workers:   spec.Workers,
		Mix:       spec.Mix,
		Trace:     tr,
		Duration:  tr.Duration() + simDrainSlack,
		Seed:      seed,
		NewPolicy: newPolicy,
		OnComplete: func(r *cluster.Request, at sim.Time) {
			run.PerType[r.Type]++
			if qd := r.QueueDelay(); qd >= 0 && time.Duration(r.Arrival) >= cut {
				run.QueueDelays[r.Type] = append(run.QueueDelays[r.Type], qd)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	run.Arrived = res.Machine.Arrived()
	run.Complete = res.Machine.Completed()
	run.Dropped = res.Machine.Dropped()
	return run, nil
}
