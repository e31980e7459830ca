package policy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/workload"
)

// bind binds spec to a four-worker machine serving HighBimodal.
func bind(spec sched.Spec) (func() cluster.Policy, error) {
	mix := workload.HighBimodal()
	return Constructor(spec, 4, len(mix.Types), mix.Means(), 1, 0)
}

func TestPolicySpecConstructorValidation(t *testing.T) {
	// Every advertised name must produce a working constructor.
	for _, name := range sched.Names() {
		name = strings.NewReplacer(":N", ":1", ":Nus", ":1us").Replace(name)
		spec, err := sched.ParseSpec(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		newPolicy, err := bind(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if newPolicy() == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	// Machine-shape validation: reservations cannot exceed workers.
	if _, err := bind(sched.Spec{Kind: sched.KindDARCStatic, StaticReserved: 9}); err == nil {
		t.Fatal("darc-static:9 on 4 workers accepted")
	}
	if _, err := bind(sched.Spec{Kind: 200}); err == nil {
		t.Fatal("hand-built bogus spec accepted")
	}
	if _, err := bind(sched.Spec{Kind: sched.KindTSIdeal, PreemptOverhead: -time.Microsecond}); err == nil {
		t.Fatal("negative preemption overhead accepted")
	}
}

// TestParsePolicySpecConstructor: the two-step parse-then-bind path —
// same successes, same failures as a one-shot helper.
func TestParsePolicySpecConstructor(t *testing.T) {
	parse := func(name string) error {
		spec, err := sched.ParseSpec(name)
		if err != nil {
			return err
		}
		_, err = bind(spec)
		return err
	}
	if err := parse("darc-static:2"); err != nil {
		t.Fatal(err)
	}
	if err := parse("darc-static:9"); err == nil {
		t.Fatal("out-of-range reservation accepted")
	}
	if err := parse("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
