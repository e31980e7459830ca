package policy

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/policy_golden.json from the simulator as it is")

// typeGolden pins one request type's latency quantiles (ns).
type typeGolden struct {
	P50, P99, P999 time.Duration
}

// policyGolden pins what one policy computes on one mix.
type policyGolden struct {
	Completed, Dropped uint64
	Types              []typeGolden
	Slowdown           float64 // p99.9 across all requests
}

// TestPolicyGolden runs every policy on a short fixed-seed
// ExtremeBimodal and TPC-C horizon and compares the outcome with
// testdata/policy_golden.json. The simulation is deterministic, so any
// change to the engine's event order, a policy's decisions or the order
// of random draws shows up here; -update records the file anew.
func TestPolicyGolden(t *testing.T) {
	const workers = 8
	mixes := []struct {
		mix      workload.Mix
		duration time.Duration
	}{
		{workload.ExtremeBimodal(), 20 * time.Millisecond},
		{workload.TPCC(), 40 * time.Millisecond},
	}
	got := map[string]policyGolden{}
	for _, mx := range mixes {
		for _, spec := range allSpecs(workers, len(mx.mix.Types)) {
			res, err := cluster.Run(cluster.Config{
				Workers:        workers,
				Mix:            mx.mix,
				LoadFraction:   0.85,
				Duration:       mx.duration,
				WarmupFraction: 0.1,
				Seed:           7,
				NewPolicy:      func() cluster.Policy { return spec.mk(7) },
			})
			if err != nil {
				t.Fatal(err)
			}
			g := policyGolden{
				Completed: res.Machine.Completed(),
				Dropped:   res.Machine.Dropped(),
				Slowdown:  metrics.SlowdownAt(res.Recorder.All(), 0.999),
			}
			for i := range mx.mix.Types {
				lat := &res.Recorder.Type(i).Latency
				g.Types = append(g.Types, typeGolden{
					P50:  lat.QuantileDuration(0.50),
					P99:  lat.QuantileDuration(0.99),
					P999: lat.QuantileDuration(0.999),
				})
			}
			got[mx.mix.Name+"/"+spec.name] = g
		}
	}

	path := filepath.Join("testdata", "policy_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]policyGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from golden", key)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got %s\nwant %s", key, gj, wj)
		}
	}
}
