package policy

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestRunAllocsPerRequest bounds the simulator's steady-state cost: an
// arrival, a dispatch and a completion recycle their events, reuse each
// worker's callbacks and take the request from a slab, so a whole run
// averages well under one allocation per completed request.
func TestRunAllocsPerRequest(t *testing.T) {
	const workers = 16
	specs := []struct {
		name string
		mk   func() cluster.Policy
	}{
		{"darc", func() cluster.Policy {
			cfg := darc.DefaultConfig(workers)
			cfg.MinWindowSamples = 2000
			return NewDARC(cfg, 2, 0)
		}},
		{"darc-static", func() cluster.Policy {
			return NewDARCStatic([]time.Duration{500 * time.Nanosecond, 500 * time.Microsecond}, 2, 0)
		}},
		{"elastic", func() cluster.Policy {
			cfg := darc.DefaultConfig(workers)
			cfg.MinWindowSamples = 2000
			return NewElasticDARC(cfg, 2, 0)
		}},
		{"cfcfs", func() cluster.Policy { return NewCFCFS(0) }},
		{"dfcfs", func() cluster.Policy { return NewDFCFS(rng.New(1), 0) }},
		{"fp", func() cluster.Policy {
			return NewFixedPriority([]time.Duration{500 * time.Nanosecond, 500 * time.Microsecond}, 0)
		}},
		{"shinjuku-mq", func() cluster.Policy {
			return NewTSMultiQueue(TSConfig{Quantum: 5 * time.Microsecond, PreemptCost: time.Microsecond}, 2)
		}},
		{"ts-ideal", func() cluster.Policy { return NewTSIdeal(time.Microsecond, time.Microsecond, 0) }},
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			var completed uint64
			allocs := testing.AllocsPerRun(1, func() {
				res, err := cluster.Run(cluster.Config{
					Workers:        workers,
					Mix:            workload.ExtremeBimodal(),
					LoadFraction:   0.8,
					Duration:       20 * time.Millisecond,
					WarmupFraction: 0.1,
					Seed:           1,
					NewPolicy:      spec.mk,
				})
				if err != nil {
					t.Fatal(err)
				}
				completed = res.Machine.Completed()
			})
			perReq := allocs / float64(completed)
			t.Logf("%.0f allocs for %d completed requests: %.3f per request", allocs, completed, perReq)
			if perReq > 0.5 {
				t.Fatalf("%.3f allocs per completed request, want at most 0.5", perReq)
			}
		})
	}
}
