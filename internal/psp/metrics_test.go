package psp

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func TestWriteMetrics(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	for i := 0; i < 50; i++ {
		if _, err := srv.Call(typedPayload(i%2, "m")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"persephone_requests_total",
		"persephone_dispatched_total",
		"persephone_dropped_total 0",
		"persephone_reservation_updates_total",
		`persephone_latency_seconds{type="type0",quantile="0.999"}`,
		`persephone_slowdown_p999{type="type0"}`,
		"# TYPE persephone_latency_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetricsHTTP(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	for i := 0; i < 20; i++ {
		srv.Call(typedPayload(0, "x")) //nolint:errcheck
	}
	addr, shutdown, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	cli := &http.Client{Timeout: 5 * time.Second}
	resp, err := cli.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "persephone_requests_total") {
		t.Fatalf("body %q", body)
	}

	health, err := cli.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != 200 {
		t.Fatalf("healthz status %d", health.StatusCode)
	}
}

func TestHealthzAfterStop(t *testing.T) {
	srv := newEchoServer(t, 1, sched.KindCFCFS)
	addr, shutdown, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	srv.Stop()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after stop: %d", resp.StatusCode)
	}
}

// TestWriteMetricsGolden pins the full Prometheus exposition — HELP
// and TYPE lines, metric names, label quoting, value formatting —
// against a golden file. The server is never started and every counter
// is hand-planted, so the rendered text is byte-deterministic.
// Regenerate with: go test ./internal/psp -run Golden -update
func TestWriteMetricsGolden(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC:   darc.DefaultConfig(2),
		Faults: &faults.Profile{Seed: 1, DropRate: 1},
		// Deterministic admission state: type0 carries an explicit 2ms
		// budget, type1 stays unprofiled (budget 0), the unknown slot
		// auto-derives to the 2ms maximum. Alpha 1/2 makes the EWMA
		// arithmetic exact in float64.
		Admission: &admission.Config{
			Budgets:       []time.Duration{2 * time.Millisecond, 0},
			OverloadDelay: time.Millisecond,
			EWMAAlpha:     0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.enqueued.Store(42)
	srv.dispatched.Store(40)
	srv.mu.Lock()
	srv.dropped = 2
	srv.mu.Unlock()
	for i := 0; i < 3; i++ {
		srv.inj.IngressDrop() // DropRate 1: always injects
	}
	srv.noteRetry()
	srv.noteRetry()
	srv.restarts.Add(1)
	ms := time.Millisecond
	srv.rec.Complete(0, 0, ms, 500*time.Microsecond, 100*time.Microsecond, 0)
	srv.rec.Complete(0, 0, 2*ms, 500*time.Microsecond, 100*time.Microsecond, 0)
	srv.rec.Complete(1, 0, 20*ms, 10*ms, ms, 0)

	// Hand-plant lifecycle spans: two type-0, one type-1, and one
	// unclassifiable request; the stats path drains them into the
	// queue-delay and service families. traceLost is bumped directly.
	us := time.Microsecond
	for _, sp := range []trace.Span{
		{ID: 1, Type: 0, Worker: 0, Ingress: 0, Started: 10 * us, Finished: 110 * us, Replied: 112 * us},
		{ID: 2, Type: 0, Worker: 0, Ingress: 50 * us, Started: 80 * us, Finished: 190 * us, Replied: 195 * us},
		{ID: 3, Type: 1, Worker: 1, Ingress: 0, Started: 2 * ms, Finished: 12 * ms, Replied: 12*ms + 5*us},
		{ID: 4, Type: -1, Worker: 1, Ingress: ms, Started: ms + 40*us, Finished: ms + 90*us, Replied: ms + 95*us},
	} {
		if !srv.traceRings[sp.Worker].TryPut(sp) {
			t.Fatalf("trace ring full planting span %d", sp.ID)
		}
	}
	srv.traceLost.Add(1)

	// Hand-plant the admission ledger: type0 sheds on both deadline
	// and overload, type1 completes cleanly, the unknown slot loses
	// one to a simulated crash. The EWMA lands exactly on 2ms
	// (0 -> 1ms -> 2ms with alpha 1/2), above the 1ms threshold, so
	// the overloaded gauge pins at 1.
	for i := 0; i < 20; i++ {
		srv.adm.NoteAccepted(0)
	}
	for i := 0; i < 17; i++ {
		srv.adm.NoteCompleted(0)
	}
	srv.adm.NoteShed(0, admission.ShedDeadline)
	srv.adm.NoteShed(0, admission.ShedDeadline)
	srv.adm.NoteShed(0, admission.ShedOverload)
	for i := 0; i < 5; i++ {
		srv.adm.NoteAccepted(1)
		srv.adm.NoteCompleted(1)
	}
	srv.adm.NoteAccepted(-1)
	srv.adm.NoteAccepted(-1)
	srv.adm.NoteShed(-1, admission.ShedOverload)
	srv.adm.NoteShed(-1, admission.ShedLost)
	srv.adm.ObserveQueueDelay(2 * time.Millisecond)
	srv.adm.ObserveQueueDelay(3 * time.Millisecond)

	// Hand-plant the TCP transport families: two shards' ingress
	// counters, connection lifecycle, and pipeline-depth samples at
	// depth 1 (x2), 16 (x3), and one past the last bucket (+Inf).
	ts := &TCPServer{Server: srv, shards: []*tcpShard{{}, {}}}
	ts.shards[0].rx.Store(40)
	ts.shards[1].rx.Store(2)
	ts.shards[0].rxDrops.Store(3)
	ts.shards[0].rxSheds.Store(2)
	ts.shards[1].txFull.Store(1)
	ts.connsAccepted.Store(5)
	ts.connsOpen.Store(2)
	ts.connsEvicted.Store(1)
	ts.connsRejected.Store(4)
	ts.recordDepth(1, 2)
	ts.recordDepth(16, 3)
	ts.recordDepth(500, 1)
	srv.attachTCP(ts)

	// Hand-plant the reconfiguration control plane: three applied specs
	// (two policy swaps, one resize that migrated seven requests and
	// shed one) plus one rejection and a 1.5ms drain wait.
	srv.generation.Store(3)
	srv.rcApplied.Store(3)
	srv.rcRejected.Store(1)
	srv.rcPolicySwaps.Store(2)
	srv.rcResizes.Store(1)
	srv.rcMigrated.Store(7)
	srv.rcMigratedShed.Store(1)
	srv.rcLastDrainNs.Store(1_500_000)

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
