package fanout

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/policy"
	"repro/internal/workload"
)

func testConfig() Config {
	return Config{
		Backends:          4,
		FanOut:            2,
		WorkersPerBackend: 2,
		Mix:               workload.HighBimodal(),
		ShardLoad:         0.5,
		Duration:          100 * time.Millisecond,
		WarmupFraction:    0.1,
		Seed:              1,
		NewPolicy:         func() cluster.Policy { return policy.NewCFCFS(0) },
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries completed")
	}
	if res.SubRequests < res.Queries*2 {
		t.Fatalf("sub-requests %d < 2x queries %d", res.SubRequests, res.Queries)
	}
	if res.QueryLatency.Count() != res.Queries {
		t.Fatalf("latency count %d vs queries %d", res.QueryLatency.Count(), res.Queries)
	}
	// The query latency distribution (max of shards) stochastically
	// dominates the shard distribution.
	if res.QueryLatency.Quantile(0.99) < res.ShardLatency.Quantile(0.99) {
		t.Fatal("query p99 below shard p99: max() inverted")
	}
	if len(res.BackendBusy) != 4 {
		t.Fatalf("backend busy entries %d", len(res.BackendBusy))
	}
	for i, b := range res.BackendBusy {
		if b <= 0 || b > 1 {
			t.Fatalf("backend %d utilization %g", i, b)
		}
	}
}

func TestValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Backends = 0 },
		func(c *Config) { c.FanOut = 0 },
		func(c *Config) { c.FanOut = 10 }, // > backends
		func(c *Config) { c.WorkersPerBackend = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.NewPolicy = nil },
		func(c *Config) { c.ShardLoad = 0 },
		func(c *Config) { c.Mix = workload.Mix{} },
	}
	for i, mutate := range mutations {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != b.Queries || a.QueryLatency.Quantile(0.999) != b.QueryLatency.Quantile(0.999) {
		t.Fatal("fan-out simulation not deterministic")
	}
}

// TestDARCImprovesQueryTail is the substrate's headline property: with
// heavy-tailed shard work, DARC backends yield a far better query-level
// tail than c-FCFS backends under the same offered load.
func TestDARCImprovesQueryTail(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := testConfig()
	base.Backends = 4
	base.FanOut = 3
	base.WorkersPerBackend = 8
	base.ShardLoad = 0.8
	base.Duration = 300 * time.Millisecond

	run := func(newPolicy func() cluster.Policy) time.Duration {
		cfg := base
		cfg.NewPolicy = newPolicy
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QueryLatency.QuantileDuration(0.99)
	}
	cfcfs := run(func() cluster.Policy { return policy.NewCFCFS(0) })
	darcP99 := run(func() cluster.Policy {
		cfg := darc.DefaultConfig(8)
		cfg.MinWindowSamples = 2000
		return policy.NewDARC(cfg, 2, 0)
	})
	if darcP99*2 > cfcfs {
		t.Fatalf("DARC query p99 %v not clearly better than c-FCFS %v", darcP99, cfcfs)
	}
}

// TestRunAllocsPerSubRequest bounds the fan-out simulation's
// steady-state cost: arrival callbacks are bound once, the backend
// choice permutes a reused slice and answered queries are reused, so a
// run averages well under one allocation per completed sub-request.
func TestRunAllocsPerSubRequest(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = time.Second
	var completed uint64
	allocs := testing.AllocsPerRun(1, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		completed = res.SubRequests
	})
	perReq := allocs / float64(completed)
	t.Logf("%.0f allocs for %d completed sub-requests: %.3f per sub-request", allocs, completed, perReq)
	if perReq > 0.1 {
		t.Fatalf("%.3f allocs per completed sub-request, want at most 0.1", perReq)
	}
}
