package conformance

// Reconfig-mid-trace conformance: a benign live reconfiguration —
// shrink the worker pool by one mid-replay, then restore it — must be
// invisible to the differential comparator. The simulator models a
// fixed pool; if the live server's request-safe handoff really loses
// or double-dispatches nothing and the capacity dip is brief, the two
// sides still AGREE clean. Runs in the conformance CI job alongside
// the canonical matrix (the -run pattern matches TestConformance*).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/psp"
	"repro/internal/reconfig"
	"repro/internal/sched"
)

func TestConformanceReconfigMidTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs in the conformance CI job")
	}
	spec, err := SpecByName("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	policy := sched.Spec{Kind: sched.KindCFCFS}

	runOnce := func() *Report {
		tr, err := spec.GenerateSeeded(spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		simRun, err := RunSim(spec, tr, policy, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}

		var mu sync.Mutex
		var gens []uint64
		var finalSnap reconfig.Snapshot
		liveRun, err := RunLiveDuring(spec, tr, policy, spec.Seed, func(srv *psp.Server) {
			// Shrink one worker a third of the way into the replay,
			// restore it half a second later. Both transitions drain
			// gracefully; neither may drop an in-flight request.
			apply := func(workers int) {
				w := workers
				res, rerr := srv.Reconfigure(reconfig.Spec{Workers: &w})
				if rerr != nil {
					t.Errorf("reconfigure to %d workers: %v", w, rerr)
					return
				}
				mu.Lock()
				gens = append(gens, res.Generation)
				mu.Unlock()
			}
			time.Sleep(spec.Duration / 3)
			apply(spec.Workers - 1)
			time.Sleep(500 * time.Millisecond)
			apply(spec.Workers)
			mu.Lock()
			finalSnap = srv.ConfigSnapshot()
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}

		mu.Lock()
		defer mu.Unlock()
		if len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
			t.Fatalf("reconfiguration generations = %v, want [1 2]", gens)
		}
		if finalSnap.Workers != spec.Workers {
			t.Fatalf("pool ended at %d workers, want %d", finalSnap.Workers, spec.Workers)
		}
		return Compare(spec, tr, simRun, liveRun, DefaultOptions(policy, tr.Len()))
	}

	rep := runOnce()
	if rep.StatisticalOnly() {
		t.Logf("statistical-only divergence (host stall?), retrying once:\n%s", rep)
		rep = runOnce()
	}
	t.Logf("\n%s", rep)
	if !rep.Agree() {
		t.Errorf("benign mid-trace reconfiguration broke sim/live agreement")
	}
}
