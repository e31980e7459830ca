package policy

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/trace"
)

// replayGolden pins one trace replay: per-type counts and latency
// quantiles (ns).
type replayGolden struct {
	Completed, Dropped []uint64
	Types              []typeGolden
}

// TestTraceReplayGolden replays the pinned conformance traces
// (internal/conformance/testdata/conformance) through the simulator
// under DARC and c-FCFS and compares the outcome with
// testdata/trace_golden.json. Trace replay drives the engine's arrival
// stream rather than a generator, so this pins the stream's ordering
// against the event heap on recorded offsets; -update records the file
// anew.
func TestTraceReplayGolden(t *testing.T) {
	traces := []struct {
		name    string
		workers int
	}{{"bimodal", 4}, {"exp", 4}, {"tpcc", 3}}
	got := map[string]replayGolden{}
	for _, tc := range traces {
		f, err := os.Open(filepath.Join("..", "conformance", "testdata", "conformance", tc.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		policies := map[string]func() cluster.Policy{
			"darc": func() cluster.Policy {
				cfg := darc.DefaultConfig(tc.workers)
				cfg.MinWindowSamples = 64
				return NewDARC(cfg, tr.NumTypes(), 0)
			},
			"cfcfs": func() cluster.Policy { return NewCFCFS(0) },
		}
		for name, mk := range policies {
			res, err := cluster.Run(cluster.Config{
				Workers:        tc.workers,
				Trace:          tr,
				Duration:       tr.Duration() + 800*time.Millisecond,
				WarmupFraction: 0.2,
				NewPolicy:      mk,
			})
			if err != nil {
				t.Fatal(err)
			}
			var g replayGolden
			for i := 0; i < tr.NumTypes(); i++ {
				ts := res.Recorder.Type(i)
				g.Completed = append(g.Completed, ts.Completed)
				g.Dropped = append(g.Dropped, ts.Dropped)
				g.Types = append(g.Types, typeGolden{
					P50:  ts.Latency.QuantileDuration(0.50),
					P99:  ts.Latency.QuantileDuration(0.99),
					P999: ts.Latency.QuantileDuration(0.999),
				})
			}
			got[tc.name+"/"+name] = g
		}
	}

	path := filepath.Join("testdata", "trace_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want map[string]replayGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden has %d", len(got), len(want))
	}
	for key, g := range got {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(want[key])
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got %s\nwant %s", key, gj, wj)
		}
	}
}
