// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure, plus micro-benchmarks for the §4.3 hot-path costs
// (channel ops, profile updates, reservation computation, classifier).
//
// The figure benchmarks run a scaled-down load point per iteration and
// report the headline metric via b.ReportMetric, so
// `go test -bench . -benchmem` doubles as a smoke-check that every
// experiment still produces paper-shaped results. Full-scale sweeps:
// `go run ./cmd/psp experiments -artifact all`.
package persephone_test

import (
	"encoding/binary"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/spsc"
	"repro/internal/workload"
)

// benchSim runs one simulated load point and reports its p99.9
// slowdown.
func benchSim(b *testing.B, mix persephone.Mix, pol string, workers int, load float64) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := persephone.Simulate(persephone.SimConfig{
			Workers:      workers,
			Mix:          mix,
			Policy:       pol,
			LoadFraction: load,
			Duration:     200 * time.Millisecond,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.OverallSlowdown
	}
	b.ReportMetric(last, "p999-slowdown")
}

// BenchmarkTable1 exercises the taxonomy generation (trivially cheap;
// kept so every artifact has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := persephone.RunExperiment("table1", persephone.ExperimentOptions{}, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the bimodal workload definitions.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := persephone.RunExperiment("table3", persephone.ExperimentOptions{}, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the TPC-C workload definition.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := persephone.RunExperiment("table4", persephone.ExperimentOptions{}, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the extended policy comparison.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := persephone.RunExperiment("table5", persephone.ExperimentOptions{}, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1DARC runs the §2 simulation's DARC point at 90% load
// on 16 workers (Extreme Bimodal).
func BenchmarkFigure1DARC(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "darc", 16, 0.9)
}

// BenchmarkFigure1CFCFS is Figure 1's c-FCFS point.
func BenchmarkFigure1CFCFS(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "cfcfs", 16, 0.9)
}

// BenchmarkFigure1TS is Figure 1's time-sharing point.
func BenchmarkFigure1TS(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "shinjuku-sq", 16, 0.9)
}

// BenchmarkFigure1DFCFS is Figure 1's d-FCFS point.
func BenchmarkFigure1DFCFS(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "dfcfs", 16, 0.9)
}

// BenchmarkFigure3 runs Figure 3's DARC point (High Bimodal in
// Perséphone, 14 workers).
func BenchmarkFigure3(b *testing.B) {
	benchSim(b, persephone.HighBimodal(), "darc", 14, 0.8)
}

// BenchmarkFigure4 runs one DARC-static cell of Figure 4 (1 reserved
// core on High Bimodal at 95% load — the paper's optimum).
func BenchmarkFigure4(b *testing.B) {
	benchSim(b, persephone.HighBimodal(), "darc-static:1", 14, 0.95)
}

// BenchmarkFigure5a runs Figure 5a's Shinjuku multi-queue point.
func BenchmarkFigure5a(b *testing.B) {
	benchSim(b, persephone.HighBimodal(), "shinjuku-mq", 14, 0.7)
}

// BenchmarkFigure5b runs Figure 5b's Shenango work-stealing point.
func BenchmarkFigure5b(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "shenango", 14, 0.7)
}

// BenchmarkFigure6 runs Figure 6's DARC point on TPC-C.
func BenchmarkFigure6(b *testing.B) {
	benchSim(b, persephone.TPCC(), "darc", 14, 0.85)
}

// BenchmarkFigure7 runs the full 4-phase workload-change experiment
// (scaled down) per iteration.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := persephone.ExperimentOptions{Duration: 100 * time.Millisecond, MinWindowSamples: 2000, Seed: uint64(i + 1)}
		if err := persephone.RunExperiment("figure7", opt, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 runs Figure 8's DARC point on the RocksDB mix.
func BenchmarkFigure8(b *testing.B) {
	benchSim(b, persephone.RocksDB(), "darc", 14, 0.8)
}

// BenchmarkFigure9 runs the broken-classifier experiment (scaled) per
// iteration.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := persephone.ExperimentOptions{
			Duration: 100 * time.Millisecond,
			Loads:    []float64{0.7},
			Seed:     uint64(i + 1),
		}
		if err := persephone.RunExperiment("figure9", opt, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 runs Figure 10's 1µs-overhead time-sharing point.
func BenchmarkFigure10(b *testing.B) {
	benchSim(b, persephone.ExtremeBimodal(), "ts-ideal:1us", 16, 0.7)
}

// BenchmarkAblationDelta runs one δ-sensitivity cell (TPC-C, δ=3).
func BenchmarkAblationDelta(b *testing.B) {
	benchSim(b, persephone.TPCC(), "darc", 14, 0.85)
}

// BenchmarkAblationStealing runs the no-stealing variant's cell via
// the experiment runner (scaled down).
func BenchmarkAblationStealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := persephone.ExperimentOptions{Duration: 100 * time.Millisecond, Seed: uint64(i + 1)}
		if err := persephone.RunExperiment("ablation-stealing", opt, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.3 micro-costs ---------------------------------------------------

// BenchmarkSPSCRingOp measures one put+get on the dispatcher/worker
// command ring (paper: 88 cycles ≈ 34ns at 2.6GHz).
func BenchmarkSPSCRingOp(b *testing.B) {
	ring := spsc.NewRing[int](1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Put(i)
		ring.Get()
	}
}

// BenchmarkProfileUpdate measures one profiler observation (paper: 75
// cycles ≈ 29ns).
func BenchmarkProfileUpdate(b *testing.B) {
	p := darc.NewProfiler(5, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(i%5, time.Duration(i%100)*time.Microsecond)
	}
}

// BenchmarkUpdateCheck measures the reservation-update trigger check
// (paper: ~300 cycles ≈ 115ns).
func BenchmarkUpdateCheck(b *testing.B) {
	cfg := darc.DefaultConfig(14)
	cfg.MinWindowSamples = 1 << 62 // never actually update
	ctl, err := darc.NewController(cfg, 5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ctl.Observe(i%5, time.Duration(i%100)*time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.MaybeUpdate()
	}
}

// BenchmarkReservationUpdate measures a full Algorithm 2 run over the
// TPC-C type population (paper: ~1000 cycles ≈ 385ns).
func BenchmarkReservationUpdate(b *testing.B) {
	stats := []darc.TypeStats{
		{Mean: 5700 * time.Nanosecond, Ratio: 0.44},
		{Mean: 6 * time.Microsecond, Ratio: 0.04},
		{Mean: 20 * time.Microsecond, Ratio: 0.44},
		{Mean: 88 * time.Microsecond, Ratio: 0.04},
		{Mean: 100 * time.Microsecond, Ratio: 0.04},
	}
	cfg := darc.Config{Workers: 14, Delta: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := darc.ComputeReservation(stats, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierField measures the header-field classifier on the
// dispatch path (paper: ≈100ns including protocol handling).
func BenchmarkClassifierField(b *testing.B) {
	c := classify.Field{Offset: 0, Types: 5}
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint16(payload, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Classify(payload) != 3 {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkClassifierRESP measures the Redis-protocol classifier.
func BenchmarkClassifierRESP(b *testing.B) {
	c := classify.NewRESP("GET", "SET", "SCAN")
	payload := []byte("*2\r\n$3\r\nGET\r\n$6\r\nkey123\r\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Classify(payload) != 0 {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator event rate
// (events/second) on a c-FCFS High Bimodal run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix := workload.HighBimodal()
	for i := 0; i < b.N; i++ {
		if _, err := persephone.Simulate(persephone.SimConfig{
			Workers:      14,
			Mix:          mix,
			Policy:       "cfcfs",
			LoadFraction: 0.8,
			Duration:     100 * time.Millisecond,
			Seed:         uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// discard is an io.Writer sink for benchmarked experiment output.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkLiveCallRoundTrip measures the live runtime's in-process
// request round trip (submit -> classify -> dispatch -> handle ->
// respond -> completion signal) — the whole §4.3 pipeline.
func BenchmarkLiveCallRoundTrip(b *testing.B) {
	srv, err := persephone.NewLiveServer(persephone.LiveConfig{
		Workers:    2,
		Classifier: persephone.FieldClassifier(0, 1),
		Handler: persephone.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return 0, proto.StatusOK
		}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	payload := []byte{0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Call(payload); err != nil {
			b.Fatal(err)
		}
	}
}
