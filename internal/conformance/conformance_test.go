package conformance

// The tentpole: the full sim↔live differential matrix. Every canonical
// trace is replayed through the discrete-event simulator and a live
// in-process UDP server under every policy, and the comparator must
// find them in agreement — structural invariants exactly, queue-delay
// quantiles within the seeded bands.
//
// These are real-time runs (each case replays a ~3s trace against a
// sleeping live server), so the matrix is trimmed under -short to one
// trace and two policies; CI's dedicated conformance job runs the full
// matrix with the package alone on the machine. The cases deliberately
// do NOT call t.Parallel(): concurrent live servers on a small CI host
// would contend for cores and inflate each other's queue delays, which
// is exactly the signal the comparator measures.

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// shortMatrix is the -short subset: the cheapest trace under the two
// policies with the most distinct mechanisms (DARC's reservations,
// c-FCFS's global order).
func shortMatrix(specName string, policy sched.Spec) bool {
	return specName == "bimodal" && (policy.Kind == sched.KindDARC || policy.Kind == sched.KindCFCFS)
}

// runCaseRetrying runs one clean case, retrying exactly once when the
// only divergences are quantile-band misses — the signature of a
// transient host stall starving the live server (see
// Report.StatisticalOnly). Structural divergences fail immediately.
func runCaseRetrying(t *testing.T, spec TraceSpec, policy sched.Spec, seed uint64) *Report {
	t.Helper()
	rep, err := RunCase(spec, policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatisticalOnly() {
		t.Logf("statistical-only divergence (host stall?), retrying once:\n%s", rep)
		if rep, err = RunCase(spec, policy, seed); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

func TestConformanceCanonicalMatrix(t *testing.T) {
	for _, spec := range CanonicalSpecs() {
		for _, policy := range Policies() {
			spec, policy := spec, policy
			t.Run(spec.Name+"/"+policy.Kind.String(), func(t *testing.T) {
				if testing.Short() && !shortMatrix(spec.Name, policy) {
					t.Skipf("full matrix runs in the conformance CI job")
				}
				rep := runCaseRetrying(t, spec, policy, spec.Seed)
				t.Logf("\n%s", rep)
				if !rep.Agree() {
					t.Errorf("sim and live diverged under %s/%s", spec.Name, policy.Kind)
				}
				// The report must carry the agreement table rows the
				// experiment docs quote: one block per type at p50.
				md := rep.MarkdownTable()
				for _, ts := range spec.Mix.Types {
					if !strings.Contains(md, "| "+ts.Name+" | p50 |") {
						t.Errorf("markdown table missing a p50 row for %q:\n%s", ts.Name, md)
					}
				}
			})
		}
	}
}

// TestConformanceSeedStability reruns one case on fresh seeds: the
// bands must hold not just on the pinned seed but on neighbouring
// arrival sequences (guarding against a spec tuned to one lucky draw).
func TestConformanceSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed stability runs in the conformance CI job")
	}
	spec, err := SpecByName("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{spec.Seed + 1, spec.Seed + 2} {
		rep := runCaseRetrying(t, spec, sched.Spec{Kind: sched.KindDARC}, seed)
		if !rep.Agree() {
			t.Errorf("seed %d diverged:\n%s", seed, rep)
		}
	}
}
