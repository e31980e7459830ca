package persephone_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestSimulateDefaults(t *testing.T) {
	res, err := persephone.Simulate(persephone.SimConfig{
		Mix:          persephone.HighBimodal(),
		LoadFraction: 0.5,
		Duration:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "DARC" {
		t.Fatalf("default policy %q", res.Policy)
	}
	if res.Completed == 0 || len(res.Types) != 2 {
		t.Fatalf("result %+v", res)
	}
}

func TestSimulateEveryPolicyName(t *testing.T) {
	mix := persephone.HighBimodal()
	names := []string{
		"darc", "darc-static:1", "darc-elastic", "cfcfs", "dfcfs",
		"shenango", "shinjuku-sq", "shinjuku-mq", "ts-ideal:2us",
		"fp", "sjf", "edf", "drr",
	}
	for _, name := range names {
		res, err := persephone.Simulate(persephone.SimConfig{
			Workers:      4,
			Mix:          mix,
			Policy:       name,
			LoadFraction: 0.4,
			Duration:     30 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Completed == 0 {
			t.Errorf("%s: no completions", name)
		}
	}
}

func TestSimulateBadPolicy(t *testing.T) {
	for _, name := range []string{"nope", "darc-static:x", "darc-static:99", "ts-ideal:abc"} {
		_, err := persephone.Simulate(persephone.SimConfig{
			Mix:          persephone.HighBimodal(),
			Policy:       name,
			LoadFraction: 0.5,
			Duration:     10 * time.Millisecond,
		})
		if err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestParsePolicySpecTable checks the facade's policy grammar: every
// accepted spelling, alias and argument form of SimConfig.Policy parses
// to the spec whose canonical text and arguments are listed, and
// Simulate runs the spelling exactly as it runs the canonical text.
func TestParsePolicySpecTable(t *testing.T) {
	cases := []struct {
		in       string
		want     string // canonical String of the parsed spec
		reserved int
		overhead time.Duration
	}{
		{"", "darc", 0, 0},
		{"darc", "darc", 0, 0},
		{"  DARC  ", "darc", 0, 0},
		{"darc-elastic", "darc-elastic", 0, 0},
		{"darc-static:3", "darc-static:3", 3, 0},
		{"darc-static:0", "darc-static:0", 0, 0},
		{"cfcfs", "cfcfs", 0, 0},
		{"c-fcfs", "cfcfs", 0, 0},
		{"d-FCFS", "dfcfs", 0, 0},
		{"work-stealing", "shenango", 0, 0},
		{"ts-sq", "shinjuku-sq", 0, 0},
		{"ts-mq", "shinjuku-mq", 0, 0},
		{"ts-mq:10", "shinjuku-mq:10us", 0, 0},
		{"Shinjuku-SQ:15us", "shinjuku-sq:15us", 0, 0},
		{"ts-ideal", "ts-ideal", 0, 0},
		{"ts-ideal:2us", "ts-ideal:2us", 0, 2 * time.Microsecond},
		{"ts-ideal:0.5us", "ts-ideal:0.5us", 0, 500 * time.Nanosecond},
		{"fixed-priority", "fp", 0, 0},
		{"sjf", "sjf", 0, 0},
		{"edf", "edf", 0, 0},
		{"drr", "drr", 0, 0},
	}
	simulate := func(policy string) (*persephone.SimResult, error) {
		return persephone.Simulate(persephone.SimConfig{
			Workers:      4,
			Mix:          persephone.HighBimodal(),
			Policy:       policy,
			LoadFraction: 0.3,
			Duration:     5 * time.Millisecond,
		})
	}
	for _, tc := range cases {
		got, err := sched.ParseSpec(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got.String() != tc.want || got.StaticReserved != tc.reserved || got.PreemptOverhead != tc.overhead {
			t.Errorf("%q: got %q %+v, want %q reserved=%d overhead=%v",
				tc.in, got.String(), got, tc.want, tc.reserved, tc.overhead)
		}
		res, err := simulate(tc.in)
		if err != nil {
			t.Errorf("Simulate %q: %v", tc.in, err)
			continue
		}
		ref, err := simulate(tc.want)
		if err != nil {
			t.Errorf("Simulate %q: %v", tc.want, err)
			continue
		}
		if res.Policy != ref.Policy || res.Completed != ref.Completed {
			t.Errorf("Simulate %q: %s completed %d, %q: %s completed %d",
				tc.in, res.Policy, res.Completed, tc.want, ref.Policy, ref.Completed)
		}
	}
}

func TestSimulateDARCBeatsBaselineAtHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	mix := persephone.HighBimodal()
	run := func(pol string) float64 {
		res, err := persephone.Simulate(persephone.SimConfig{
			Workers:      14,
			Mix:          mix,
			Policy:       pol,
			LoadFraction: 0.85,
			Duration:     400 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.OverallSlowdown
	}
	cf := run("cfcfs")
	da := run("darc")
	if da*3 > cf {
		t.Fatalf("DARC %.1fx not clearly better than c-FCFS %.1fx", da, cf)
	}
}

func TestExperimentNamesComplete(t *testing.T) {
	names := persephone.ExperimentNames()
	want := []string{
		"ablation-delta", "ablation-dispatcher", "ablation-stealing",
		"ext-autoscale", "ext-burst", "ext-fanout", "ext-fanout-sim", "ext-overload", "ext-variance",
		"figure1", "figure10", "figure3", "figure4", "figure5a",
		"figure5b", "figure6", "figure7", "figure8", "figure9",
		"table1", "table3", "table4", "table5",
	}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v, want %v", names, want)
		}
	}
}

func TestRunExperimentTables(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"table1", "table3", "table4", "table5"} {
		buf.Reset()
		if err := persephone.RunExperiment(name, persephone.ExperimentOptions{}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("%s output missing header: %q", name, buf.String()[:60])
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := persephone.RunExperiment("figure99", persephone.ExperimentOptions{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	opt := persephone.ExperimentOptions{
		Duration: 50 * time.Millisecond,
		Loads:    []float64{0.5},
	}
	if err := persephone.RunExperiment("figure1", opt, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"d-FCFS", "c-FCFS", "TS", "DARC"} {
		if !strings.Contains(out, col) {
			t.Fatalf("figure1 output missing %s:\n%s", col, out)
		}
	}
}

func TestLiveServerFacade(t *testing.T) {
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:    2,
		Classifier: persephone.CommandClassifier("PING"),
		Handler: persephone.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, "PONG"), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	resp, err := srv.Call([]byte("PING"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "PONG" || resp.Status != proto.StatusOK {
		t.Fatalf("resp %+v", resp)
	}
}

func TestRunLoadFacade(t *testing.T) {
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:    2,
		Classifier: persephone.FieldClassifier(0, 2),
		Handler: persephone.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return 0, proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	res, err := persephone.RunLoad(persephone.LoadRunConfig{
		Config: persephone.LoadConfig{
			Mix:      persephone.HighBimodal(),
			Rate:     1000,
			Duration: 200 * time.Millisecond,
			Seed:     1,
		},
		Server: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("no responses")
	}
}

// TestFuncClassifierFacade checks that a plain function, adapted by
// classify.Func, serves as the facade's Classifier.
func TestFuncClassifierFacade(t *testing.T) {
	var c persephone.Classifier = classify.Func{Label: "by-size", Types: 2, F: func(p []byte) int {
		if len(p) > 4 {
			return 1
		}
		return 0
	}}
	if c.Classify([]byte("12345")) != 1 || c.Classify([]byte("1")) != 0 {
		t.Fatal("classifier wrong")
	}
	if c.NumTypes() != 2 || c.Name() != "by-size" {
		t.Fatalf("classifier %d types, name %q", c.NumTypes(), c.Name())
	}
}

func TestReplayTraceFacade(t *testing.T) {
	// Build a small trace by hand and replay it under two policies.
	tr := &persephone.Trace{}
	for i := 0; i < 500; i++ {
		typ, svc := 0, time.Microsecond
		if i%10 == 0 {
			typ, svc = 1, 100*time.Microsecond
		}
		tr.Records = append(tr.Records, traceRecord(time.Duration(i)*5*time.Microsecond, typ, svc))
	}
	// Mix is optional: a policy sized by the type count takes the
	// trace's own (shinjuku-mq's per-type queues).
	for _, cfg := range []persephone.SimConfig{
		{Policy: "darc", Mix: persephone.HighBimodal()},
		{Policy: "cfcfs", Mix: persephone.HighBimodal()},
		{Policy: "shinjuku-mq"},
	} {
		pol := cfg.Policy
		cfg.Workers = 4
		res, err := persephone.ReplayTrace(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Completed != 500 {
			t.Fatalf("%s: completed %d", pol, res.Completed)
		}
	}
	// A policy that ranks types by mean service time has nothing to
	// rank by without a Mix: edf used to panic, fp and darc-static to
	// rank by zeros.
	for _, pol := range []string{"edf", "fp", "darc-static:1"} {
		if _, err := persephone.ReplayTrace(tr, persephone.SimConfig{Policy: pol, Workers: 4}); err == nil {
			t.Fatalf("%s without a Mix accepted", pol)
		}
	}
	if _, err := persephone.ReplayTrace(&persephone.Trace{}, persephone.SimConfig{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestReadTraceFacade reads a hand-written CSV trace into the facade's
// Trace and replays it.
func TestReadTraceFacade(t *testing.T) {
	var tr *persephone.Trace
	tr, err := trace.Read(strings.NewReader("offset_ns,type,service_ns\n0,0,1000\n500,1,2000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.NumTypes() != 2 {
		t.Fatalf("trace %+v", tr)
	}
	res, err := persephone.ReplayTrace(tr, persephone.SimConfig{Workers: 2, Policy: "cfcfs"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("replayed %d of 2", res.Completed)
	}
}

func TestServiceDistHelpers(t *testing.T) {
	if persephone.FixedService(time.Microsecond).Mean() != time.Microsecond {
		t.Fatal("FixedService mean")
	}
	if persephone.ExpService(time.Millisecond).Mean() != time.Millisecond {
		t.Fatal("ExpService mean")
	}
}

// traceRecord builds one trace record (helper keeping the literals
// readable above).
func traceRecord(offset time.Duration, typ int, svc time.Duration) (r struct {
	Offset  time.Duration
	Type    int
	Service time.Duration
}) {
	r.Offset, r.Type, r.Service = offset, typ, svc
	return r
}

func TestMixByName(t *testing.T) {
	for _, name := range []string{"high-bimodal", "extreme", "TPCC", "rocksdb"} {
		mix, err := persephone.MixByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := mix.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := persephone.MixByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestMixByNameErrors(t *testing.T) {
	for _, name := range []string{"", "   ", "bimodal", "high-bimodal,tpcc", "rocksdb2"} {
		if _, err := persephone.MixByName(name); err == nil {
			t.Errorf("%q: accepted, want error", name)
		}
	}
	// Aliases and surrounding whitespace are fine.
	for _, name := range []string{" high ", "TPC-C", "Extreme-Bimodal"} {
		if _, err := persephone.MixByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
}

// TestPolicyNamesSimulate runs every name PolicyNames lists (with 1
// for a placeholder argument), so the list `psp sim -policies` prints
// stays one that Simulate accepts.
func TestPolicyNamesSimulate(t *testing.T) {
	names := persephone.PolicyNames()
	if len(names) < 10 {
		t.Fatalf("PolicyNames lists %d policies: %v", len(names), names)
	}
	for _, name := range names {
		name = strings.Replace(name, ":N", ":1", 1)
		res, err := persephone.Simulate(persephone.SimConfig{
			Workers:      4,
			Mix:          persephone.HighBimodal(),
			Policy:       name,
			LoadFraction: 0.3,
			Duration:     10 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if res.Completed == 0 {
			t.Errorf("%s: no completions", name)
		}
	}
}

// TestListenAddrStrings checks the address list Listen reports: one
// entry per UDP shard, the first being Addr, and the TCP listener's
// one address.
func TestListenAddrStrings(t *testing.T) {
	cfg := persephone.LiveConfig{
		Workers:    1,
		NetShards:  2,
		Classifier: persephone.FieldClassifier(0, 1),
		Handler: persephone.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return 0, proto.StatusOK
		}),
	}
	udp, err := persephone.Listen("udp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	addrs := strings.Split(udp.AddrStrings(), ",")
	if len(addrs) != 2 || addrs[0] != udp.Addr().String() || addrs[0] == addrs[1] {
		t.Fatalf("udp AddrStrings %q, Addr %v", udp.AddrStrings(), udp.Addr())
	}
	cfg.NetShards = 1
	tcp, err := persephone.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if got := tcp.AddrStrings(); got != tcp.Addr().String() {
		t.Fatalf("tcp AddrStrings %q, Addr %v", got, tcp.Addr())
	}
	if _, err := persephone.Listen("quic", "127.0.0.1:0", cfg); err == nil {
		t.Fatal("unknown network accepted")
	}
}
