package conformance

// Mutation-detection battery: the proof the harness has teeth. Each
// catalogue entry silently perturbs the live scheduler while the sim
// models the declared policy; the comparator must flag the divergence
// (zero false negatives) via the structural signal the mutation
// actually breaks — and the unperturbed counterpart at the same seed
// must still agree (zero false positives), so detection cannot be an
// artifact of the seed.

import (
	"testing"

	"repro/internal/sched"
)

// expectedSignal maps each mutation to the divergence kind its
// perturbation must trip. Detecting a mutation only through loose
// statistical bands would be luck; these are the deterministic
// fingerprints.
var expectedSignal = map[string]string{
	"policy-swap-cfcfs":  "reservation", // declared DARC never installs one
	"delayed-update":     "reservation", // ReservationDelay outlives the run
	"reservation-shrink": "reservation", // non-shorts appear on reserved cores
	"policy-swap-dfcfs":  "fcfs-order",  // per-worker steering inverts arrivals
	"misclassify":        "type-counts", // served mix no longer matches the trace
	"admission-disabled": "admission",   // over-budget pressure, zero sheds
}

func TestMutationMatrixDetects(t *testing.T) {
	spec, err := SpecByName("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	muts := Mutations()
	if testing.Short() {
		// One reservation-signal and one order-signal mutation keep the
		// race job honest without five live runs.
		short := muts[:0]
		for _, m := range muts {
			if m.Name == "policy-swap-cfcfs" || m.Name == "policy-swap-dfcfs" {
				short = append(short, m)
			}
		}
		muts = short
	}
	for _, mut := range muts {
		mut := mut
		t.Run(mut.Name, func(t *testing.T) {
			want, ok := expectedSignal[mut.Name]
			if !ok {
				t.Fatalf("mutation %q has no expected detection signal; extend expectedSignal", mut.Name)
			}
			rep, err := RunMutationCase(spec, mut, spec.Seed+11)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Agree() {
				t.Fatalf("mutation %q (%s) went undetected", mut.Name, mut.Detail)
			}
			for _, d := range rep.Divergences {
				if d.Kind == want {
					return
				}
			}
			t.Errorf("mutation %q detected, but not via the %q signal:\n%s", mut.Name, want, rep)
		})
	}
}

// TestMutationCleanCounterpartsAgree reruns every declared policy the
// catalogue hides under, unperturbed, at the same off-canonical seed
// the detection trials use: if a clean run diverged there, the matrix
// above would be detecting the seed rather than the mutation.
func TestMutationCleanCounterpartsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("clean counterparts run in the conformance CI job")
	}
	spec, err := SpecByName("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[sched.Spec]bool{}
	for _, mut := range Mutations() {
		if seen[mut.Policy] {
			continue
		}
		seen[mut.Policy] = true
		rep := runCaseRetrying(t, spec, mut.Policy, spec.Seed+11)
		if !rep.Agree() {
			t.Errorf("clean %s at the detection seed diverged (false positive):\n%s", mut.Policy, rep)
		}
	}
}

// TestMutationCatalogueShape pins the catalogue's contract: every
// entry names a known policy, has a detail string, and the catalogue
// covers all three structural detector families.
func TestMutationCatalogueShape(t *testing.T) {
	policies := map[sched.Spec]bool{}
	for _, p := range Policies() {
		policies[p] = true
	}
	signals := map[string]bool{}
	for _, mut := range Mutations() {
		if mut.Name == "" || mut.Detail == "" {
			t.Errorf("mutation %+v missing name or detail", mut)
		}
		if !policies[mut.Policy] {
			t.Errorf("mutation %q declares unknown policy %s", mut.Name, mut.Policy)
		}
		sig, ok := expectedSignal[mut.Name]
		if !ok {
			t.Errorf("mutation %q has no expected signal", mut.Name)
		}
		signals[sig] = true
		if _, err := MutationByName(mut.Name); err != nil {
			t.Errorf("MutationByName(%q): %v", mut.Name, err)
		}
	}
	for _, family := range []string{"reservation", "fcfs-order", "type-counts", "admission"} {
		if !signals[family] {
			t.Errorf("catalogue exercises no %q mutation", family)
		}
	}
}
