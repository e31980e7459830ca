package conformance

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
)

// Mutation is one deliberate live-scheduler perturbation. The sim
// always runs the *declared* policy; the mutation quietly changes what
// the live server actually does, and the comparator must notice. A
// harness that passes the clean matrix but misses a mutation has no
// teeth.
type Mutation struct {
	// Name identifies the mutation in reports.
	Name string
	// Policy is the declared policy the mutation hides under.
	Policy sched.Spec
	// Detail says what is perturbed, for the report.
	Detail string

	// Live-side perturbations (nil/false = leave alone). live replaces
	// the policy the live server runs.
	live           *sched.Spec
	faults         *faults.Profile
	flipClassifier bool

	// admissionBudget > 0 declares a uniform per-type admission budget
	// for the case; disableAdmission quietly drops it from the live
	// configuration (the server accepts everything while the declared
	// contract promises deadline shedding).
	admissionBudget  time.Duration
	disableAdmission bool
}

// Mutations is the detection catalogue: every entry must be flagged by
// Compare on every canonical trace and seed (zero false negatives).
func Mutations() []Mutation {
	return []Mutation{
		{
			Name:   "policy-swap-cfcfs",
			Policy: sched.Spec{Kind: sched.KindDARC},
			Detail: "live server silently runs c-FCFS instead of DARC",
			live:   &sched.Spec{Kind: sched.KindCFCFS},
		},
		{
			Name:   "delayed-update",
			Policy: sched.Spec{Kind: sched.KindDARC},
			Detail: "faults.ReservationDelay holds every DARC update past the run",
			faults: &faults.Profile{Seed: 1, StallWorker: -1, SlowWorker: -1, ReservationDelay: 30 * time.Minute},
		},
		{
			Name:   "reservation-shrink",
			Policy: sched.Spec{Kind: sched.KindDARCStatic},
			Detail: "static reservation shrunk to zero cores",
			live:   &sched.Spec{Kind: sched.KindDARCStatic},
		},
		{
			Name:   "policy-swap-dfcfs",
			Policy: sched.Spec{Kind: sched.KindCFCFS},
			Detail: "live server steers per-worker queues (d-FCFS) instead of c-FCFS",
			live:   &sched.Spec{Kind: sched.KindDFCFS},
		},
		{
			Name:           "misclassify",
			Policy:         sched.Spec{Kind: sched.KindCFCFS},
			Detail:         "classifier swaps the two most extreme types",
			flipClassifier: true,
		},
		{
			Name:             "admission-disabled",
			Policy:           sched.Spec{Kind: sched.KindDARC},
			Detail:           "declared admission control silently disabled under overload",
			admissionBudget:  2 * time.Millisecond,
			disableAdmission: true,
		},
	}
}

// MutationByName finds a catalogue entry.
func MutationByName(name string) (Mutation, error) {
	for _, m := range Mutations() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mutation{}, fmt.Errorf("conformance: unknown mutation %q", name)
}
