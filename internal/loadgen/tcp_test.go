package loadgen

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
)

func tcpEcho(t *testing.T) *psp.TCPServer {
	t.Helper()
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := psp.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func TestRunTCP(t *testing.T) {
	ts := tcpEcho(t)
	res, err := RunTCP(ts.Addr().String(), Config{
		Mix:      testMix(),
		Rate:     2000,
		Duration: 300 * time.Millisecond,
		Seed:     4,
		Conns:    2,
		Pipeline: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	// The stream is reliable: over loopback with no chaos, every sent
	// request is answered.
	if res.Received != res.Sent {
		t.Fatalf("received %d of %d over a reliable stream (%d dropped, %d timed out)",
			res.Received, res.Sent, res.Dropped, res.TimedOut)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
	if res.Overall.QuantileDuration(0.5) <= 0 {
		t.Fatal("no latency recorded")
	}
	if res.Late.Count() != res.Sent {
		t.Fatalf("lateness samples %d vs sent %d", res.Late.Count(), res.Sent)
	}
}

// TestRunTCPTimeoutAccounting points the generator at an address that
// accepts and then never answers: every request must surface as an
// explicit timeout.
func TestRunTCPTimeoutAccounting(t *testing.T) {
	// A handler that never finishes within the request timeout.
	slow, err := psp.NewServer(psp.Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			time.Sleep(500 * time.Millisecond)
			return 0, proto.StatusOK
		}),
		Policy: sched.Spec{Kind: sched.KindCFCFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	tslow, err := psp.ListenTCP("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer tslow.Close()

	res, err := RunTCP(tslow.Addr().String(), Config{
		Mix:            testMix(),
		Rate:           200,
		Duration:       100 * time.Millisecond,
		Seed:           1,
		RequestTimeout: 20 * time.Millisecond,
		Timeout:        2 * time.Second,
		Pipeline:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.TimedOut != res.Sent {
		t.Fatalf("%d of %d sends timed out, want all (received %d)", res.TimedOut, res.Sent, res.Received)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

// TestRunTCPPipelineLateness: with one connection and a pipeline of
// one, a 5ms handler serves at most 200 req/s, so 1000 req/s of
// arrivals queue behind the pipeline. That wait is the generator's
// lateness, not the requests' latency, and Late makes it visible.
func TestRunTCPPipelineLateness(t *testing.T) {
	srv, err := psp.NewServer(psp.Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			time.Sleep(5 * time.Millisecond)
			return copy(r, p), proto.StatusOK
		}),
		Policy: sched.Spec{Kind: sched.KindCFCFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := psp.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	res, err := RunTCP(l.Addr().String(), Config{
		Mix:      testMix(),
		Rate:     1000,
		Duration: 100 * time.Millisecond,
		Seed:     16,
		Pipeline: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v late p50=%v max=%v", res, res.Late.QuantileDuration(0.5), time.Duration(res.Late.Max()))
	if res.Late.Count() != res.Sent || res.Received != res.Sent {
		t.Fatalf("lateness samples %d, received %d, sent %d", res.Late.Count(), res.Received, res.Sent)
	}
	// ~100 arrivals in 100ms, sent one per >= 5ms: the last goes out
	// hundreds of milliseconds late, while each request's own latency
	// stays near the handler time.
	if late := time.Duration(res.Late.Max()); late < 100*time.Millisecond {
		t.Fatalf("max lateness %v, want the pipeline's backlog (>= 100ms)", late)
	}
	if lat, late := res.Overall.QuantileDuration(0.5), res.Late.QuantileDuration(0.5); lat >= late {
		t.Fatalf("latency p50 %v >= lateness p50 %v: the pipeline wait was charged to latency", lat, late)
	}
}
