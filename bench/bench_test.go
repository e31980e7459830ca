package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_golden.json from the simulator as it is")

// benchmarkJSON is the root BENCHMARK.json as far as this package has a
// say in it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []jsonMetric `json:"end_to_end"`
	PerLayer  []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json to exactly the
// names, units, directions and bounds the harness emits, and both to
// the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(workloadNames) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128", len(workloadNames), len(endToEnd), len(perLayer))
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloadNames {
		checkName(w)
		if bj.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, bj.Workloads[i].Name, w)
		}
	}
	compare := func(kind string, listed []jsonMetric, emitted []metricDef) {
		t.Helper()
		if len(listed) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(listed), len(emitted))
		}
		for i, d := range emitted {
			checkName(d.Name)
			if got := (metricDef{listed[i].Name, listed[i].Unit, listed[i].Better, listed[i].Bound}); got != d {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, got, d)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke runs every live workload end to end for two windows on one
// rig, the four side by side, and one tiny simulator point: enough to
// see that the ledgers balance, the payloads come back and every
// end-to-end metric is measured. Without -short one workload also makes
// the per-layer pass.
func TestSmoke(t *testing.T) {
	o := options{seed: defaultSeed, seconds: 2, setups: 1, benchtime: "1x", outDir: t.TempDir(), log: io.Discard}
	check := func(t *testing.T, name string, perLayerPass bool, defs []metricDef) {
		res, err := runWorkload(name, perLayerPass, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || (!perLayerPass && m.Value <= 0) {
				t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
			}
		}
	}
	for name := range liveSpecs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			check(t, name, false, endToEnd)
		})
	}
	t.Run("per-layer", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the per-layer pass takes three more seconds")
		}
		t.Parallel()
		check(t, wlUDPEcho, true, perLayer)
	})
	t.Run("sim-point", func(t *testing.T) {
		t.Parallel()
		res, _, err := simPoints[2].simulate(defaultSeed, 0, 0.05)
		if err != nil || res.Completed == 0 {
			t.Fatalf("completed %v, err %v", res, err)
		}
	})
}

// TestSimGolden reruns the batch's first round at the default seed
// against testdata/sim_golden.json; -update records it anew.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a full round of the simulator batch takes two seconds")
	}
	got, err := simRound0(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/sim_golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden file rewritten; run again, so that the embedded copy is the new one")
	}
	for _, err := range checkSim(defaultSeed, got) {
		t.Error(err)
	}
}
