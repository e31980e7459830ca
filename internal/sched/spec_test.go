package sched

// Table tests for the policy vocabulary (Spec): canonicalization,
// argument parsing, every documented error path, and the live form.
// The tables also carry every spelling the two grammars this parser
// replaced accepted (the simulator's name:arg grammar and the
// reconfiguration plane's hyphen-insensitive live names), each
// mapped to the same policy, and inputs both rejected, still
// rejected.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParsePolicySpecTable(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{Kind: KindDARC}},
		{"darc", Spec{Kind: KindDARC}},
		{"  DARC  ", Spec{Kind: KindDARC}},
		{"darc-elastic", Spec{Kind: KindDARCElastic}},
		{"darc-static:3", Spec{Kind: KindDARCStatic, StaticReserved: 3}},
		{"darc-static:0", Spec{Kind: KindDARCStatic}},
		{"darc-static:+3", Spec{Kind: KindDARCStatic, StaticReserved: 3}},
		{"cfcfs", Spec{Kind: KindCFCFS}},
		{"c-fcfs", Spec{Kind: KindCFCFS}},
		{"d-FCFS", Spec{Kind: KindDFCFS}},
		{"work-stealing", Spec{Kind: KindShenango}},
		{"ts-sq", Spec{Kind: KindShinjukuSQ}},
		{"ts-mq", Spec{Kind: KindShinjukuMQ}},
		{"shinjuku-mq:10us", Spec{Kind: KindShinjukuMQ, Quantum: 10 * time.Microsecond}},
		{"TS-MQ:15us", Spec{Kind: KindShinjukuMQ, Quantum: 15 * time.Microsecond}},
		{"shinjuku-sq:0.5us", Spec{Kind: KindShinjukuSQ, Quantum: 500 * time.Nanosecond}},
		{"ts-sq:5", Spec{Kind: KindShinjukuSQ, Quantum: 5 * time.Microsecond}},
		{"shinjuku-sq:0us", Spec{Kind: KindShinjukuSQ}},
		{"ts-ideal", Spec{Kind: KindTSIdeal}},
		{"ts-ideal:2us", Spec{Kind: KindTSIdeal, PreemptOverhead: 2 * time.Microsecond}},
		{"ts-ideal:0.5us", Spec{Kind: KindTSIdeal, PreemptOverhead: 500 * time.Nanosecond}},
		{"fixed-priority", Spec{Kind: KindFP}},
		{"sjf", Spec{Kind: KindSJF}},
		{"edf", Spec{Kind: KindEDF}},
		{"drr", Spec{Kind: KindDRR}},
		// The reconfiguration plane's live names: case-insensitive, with
		// hyphens anywhere or nowhere, and darc-static's N supplied by
		// its own key (so none here).
		{"DARC", Spec{Kind: KindDARC}},
		{"C-FCFS", Spec{Kind: KindCFCFS}},
		{"dfcfs", Spec{Kind: KindDFCFS}},
		{"darc-static", Spec{Kind: KindDARCStatic}},
		{"DARCStatic", Spec{Kind: KindDARCStatic}},
		{"darcstatic", Spec{Kind: KindDARCStatic}},
		{"DaRc-StAtIc", Spec{Kind: KindDARCStatic}},
		{"c-f-c-f-s", Spec{Kind: KindCFCFS}},
		{"-darc-", Spec{Kind: KindDARC}},
		{" d-fcfs ", Spec{Kind: KindDFCFS}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q: got %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParsePolicySpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		wantSub string // must appear in the error text
	}{
		{"nope", "unknown policy"},
		{"darc:", "takes no argument"},
		{"cfcfs:3", "takes no argument"},
		{"sjf:fast", "takes no argument"},
		{"darc-static:", "needs :N"},
		{"darc-static:x", "needs :N"},
		{"darc-static:-1", "needs :N"},
		{"ts-ideal:abcus", "needs :Nus"},
		{"ts-ideal:-3us", "needs :Nus"},
		{"ts-ideal:NaNus", "needs :Nus"},
		{"shinjuku-mq:", "needs :Nus"},
		{"shinjuku-mq:-1us", "needs :Nus"},
		{"ts-sq:fastus", "needs :Nus"},
		{"shinjuku-sq:+Infus", "needs :Nus"},
		{":", "takes no argument"},
		// Rejected by both replaced grammars: only the four live names
		// are hyphen-insensitive, and only without an argument.
		{"fcfs", "unknown policy"},
		{"warp-speed", "unknown policy"},
		{"-", "unknown policy"},
		{"darcstatic:2", "unknown policy"},
		{"tsideal", "unknown policy"},
		{"f-p", "unknown policy"},
		{"shinjukusq", "unknown policy"},
		{"d fcfs", "unknown policy"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("%q: accepted, want error containing %q", tc.in, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%q: error %q lacks %q", tc.in, err, tc.wantSub)
		}
	}
}

// TestPolicySpecStringRoundTrip: String must emit the canonical
// grammar, which reparses to the identical spec.
func TestPolicySpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		{}, // the zero value is darc
		{Kind: KindDARCStatic, StaticReserved: 4},
		{Kind: KindTSIdeal},
		{Kind: KindTSIdeal, PreemptOverhead: 1500 * time.Nanosecond},
		{Kind: KindShenango},
		{Kind: KindShinjukuSQ},
		{Kind: KindShinjukuMQ, Quantum: 10 * time.Microsecond},
		{Kind: KindShinjukuSQ, Quantum: 2500 * time.Nanosecond},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Errorf("%+v → %q: %v", s, s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %+v → %q → %+v", s, s.String(), got)
		}
	}
}

// TestPolicySpecRoundTripProperty drives parse∘String over the whole
// advertised grammar: every Names entry (argument placeholders
// substituted across their domain) and a deterministic sweep of
// arg-carrying specs must satisfy parse(s.String()) == canonical(s).
// This is the property the fuzzer below explores from hostile inputs;
// here it is checked exhaustively over the documented surface.
func TestPolicySpecRoundTripProperty(t *testing.T) {
	var inputs []string
	for _, name := range Names() {
		switch {
		case strings.HasSuffix(name, ":N"):
			base := strings.TrimSuffix(name, ":N")
			for _, n := range []int{0, 1, 2, 7, 16} {
				inputs = append(inputs, fmt.Sprintf("%s:%d", base, n))
			}
		case strings.HasSuffix(name, ":Nus"):
			base := strings.TrimSuffix(name, ":Nus")
			inputs = append(inputs, base)
			for _, us := range []float64{0, 0.25, 1, 1.5, 5, 1000} {
				inputs = append(inputs, fmt.Sprintf("%s:%gus", base, us))
			}
		default:
			inputs = append(inputs, name, strings.ToUpper(name), "  "+name+"\t")
		}
	}
	for _, in := range inputs {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Errorf("%q → %q: %v", in, spec.String(), err)
			continue
		}
		if again != spec {
			t.Errorf("%q: parse∘String not idempotent: %+v → %q → %+v", in, spec, spec.String(), again)
		}
		if again.String() != spec.String() {
			t.Errorf("%q: String not stable: %q vs %q", in, spec.String(), again.String())
		}
	}
}

// TestLiveForm pins the live form: the four core modes map onto
// Mode (whose String the live server's snapshots and /metrics
// print), LiveSpecs lists exactly them, and every other kind is
// refused with ErrNoLiveForm.
func TestLiveForm(t *testing.T) {
	want := map[Kind]string{
		KindDARC: "DARC", KindCFCFS: "c-FCFS", KindDFCFS: "d-FCFS", KindDARCStatic: "DARC-static",
	}
	var live []Kind
	for _, s := range LiveSpecs() {
		live = append(live, s.Kind)
	}
	if fmt.Sprint(live) != fmt.Sprint([]Kind{KindDARC, KindCFCFS, KindDFCFS, KindDARCStatic}) {
		t.Errorf("LiveSpecs kinds %v", live)
	}
	for k := Kind(0); k < numKinds; k++ {
		m, err := Spec{Kind: k}.Mode()
		if name, ok := want[k]; ok {
			if err != nil || m.String() != name {
				t.Errorf("%s: Mode() = %v, %v; want %s", k, m, err, name)
			}
		} else if !errors.Is(err, ErrNoLiveForm) {
			t.Errorf("%s: Mode() error %v, want ErrNoLiveForm", k, err)
		}
	}
}

// FuzzParsePolicySpec asserts the parser's safety and round-trip
// properties on arbitrary input: it must never panic, and any input it
// accepts must canonicalize — String() reparses to the identical spec
// with non-negative arguments and a known kind — and has a live form
// exactly when its kind is darc, cfcfs, dfcfs or darc-static.
func FuzzParsePolicySpec(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add("")
	f.Add("darc-static:3")
	f.Add("ts-ideal:0.5us")
	f.Add("ts-ideal:NaNus")
	f.Add("ts-ideal:+Infus")
	f.Add("ts-ideal:1e300us")
	f.Add("shinjuku-mq:10us")
	f.Add("ts-mq:15us")
	f.Add("shinjuku-sq:0.5us")
	f.Add("ts-sq:NaNus")
	f.Add("shinjuku-sq:-0us")
	f.Add("darc-static:+3")
	f.Add("  D-FCFS  ")
	f.Add("darc:")
	f.Add("darc-static:99999999999999999999")
	// The reconfiguration plane's spellings.
	f.Add("darcstatic")
	f.Add("c-fcfs")
	f.Add("D-FCFS")
	f.Add("DaRc-StAtIc")
	f.Add("C-F-C-F-S")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return // rejection is always fine; not panicking is the point
		}
		if spec.Kind >= numKinds {
			t.Fatalf("%q: unknown kind %d", in, spec.Kind)
		}
		if spec.StaticReserved < 0 || spec.PreemptOverhead < 0 || spec.Quantum < 0 || spec.SteerSeed != 0 {
			t.Fatalf("%q: argument out of range in %+v", in, spec)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("%q: canonical form %q rejected: %v", in, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("%q: round trip %+v → %q → %+v", in, spec, spec.String(), again)
		}
		live := spec.Kind == KindDARC || spec.Kind == KindCFCFS ||
			spec.Kind == KindDFCFS || spec.Kind == KindDARCStatic
		if _, err := spec.Mode(); (err == nil) != live || (err != nil && !errors.Is(err, ErrNoLiveForm)) {
			t.Fatalf("%q: %s live=%v but Mode() error %v", in, spec.Kind, live, err)
		}
	})
}

// ExampleParseSpec shows the scheduler name grammar.
func ExampleParseSpec() {
	for _, name := range []string{"darc", "darc-static:2", "ts-ideal:1us", "bogus"} {
		_, err := ParseSpec(name)
		fmt.Println(name, "ok:", err == nil)
	}
	// Output:
	// darc ok: true
	// darc-static:2 ok: true
	// ts-ideal:1us ok: true
	// bogus ok: false
}
