package frontend

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
)

// newBackendTCP starts an in-process Perséphone backend listening on
// TCP and returns its address.
func newBackendTCP(t *testing.T, workers int, h psp.Handler) (*psp.Server, *psp.TCPServer) {
	t.Helper()
	srv, err := psp.NewServer(psp.Config{
		Workers:    workers,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    h,
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := psp.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return srv, ts
}

// TestFrontendTCPBackends runs the fan-out integration over pipelined
// TCP backend lanes: every query's sub-requests ride the per-backend
// streams, replies come back out-of-order matched by request ID, and
// the conservation invariant holds exactly as it does on UDP.
func TestFrontendTCPBackends(t *testing.T) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackendTCP(t, 2, h)
	_, b1 := newBackendTCP(t, 2, h)

	fe, err := Listen("127.0.0.1:0", Config{
		Network:  "tcp",
		Backends: []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	const queries = 50
	for i := uint64(1); i <= queries; i++ {
		hdr, pl, corr, ok := cl.call(t, i, typedPayload(0, "fanout"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v", i, hdr.Status)
		}
		if string(pl) != string(typedPayload(0, "fanout")) {
			t.Fatalf("query %d payload = %q", i, pl)
		}
		if !ok {
			t.Fatalf("query %d response missing correlation trailer", i)
		}
		if corr.Shard != 2 {
			t.Fatalf("query %d fan-out degree = %d, want 2", i, corr.Shard)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Queries != queries || st.QueriesOK != queries {
		t.Fatalf("queries=%d ok=%d, want %d/%d", st.Queries, st.QueriesOK, queries, queries)
	}
	if st.SubIssued != 2*queries || st.SubReplied != 2*queries {
		t.Fatalf("issued=%d replied=%d, want %d each", st.SubIssued, st.SubReplied, 2*queries)
	}
	if st.Strays != 0 {
		t.Fatalf("strays = %d", st.Strays)
	}
	assertConservation(t, st)
	// Both backends served sub-requests.
	if b0.Received() == 0 || b1.Received() == 0 {
		t.Fatalf("backend rx split = %d/%d", b0.Received(), b1.Received())
	}
}

// TestFrontendTCPBackendDeath kills one TCP backend mid-run: its
// sub-requests must surface as timeouts (never unaccounted), health
// ejection must route follow-up queries to the survivor, and the
// conservation invariant must survive the broken stream.
func TestFrontendTCPBackendDeath(t *testing.T) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackendTCP(t, 1, h)
	_, b1 := newBackendTCP(t, 1, h)

	fe, err := Listen("127.0.0.1:0", Config{
		Network:       "tcp",
		Backends:      []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:        1,
		QueryTimeout:  100 * time.Millisecond,
		EjectAfter:    1,
		EjectCooldown: 10 * time.Second, // stays ejected for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	// Warm both lanes.
	for i := uint64(1); i <= 4; i++ {
		cl.call(t, i, typedPayload(0, "warm"), 2*time.Second)
	}
	b0.Close() // backend 0 is gone; its stream EOFs

	// Every query still gets an answer: either the survivor serves it,
	// or the dead lane's sub-request times out and the client sees an
	// explicit error response. After at most one timeout streak the
	// dead backend is ejected and everything lands on the survivor.
	okAfter := 0
	for i := uint64(10); i < 30; i++ {
		hdr, _, _, _ := cl.call(t, i, typedPayload(0, "after"), 2*time.Second)
		if hdr.Status == proto.StatusOK {
			okAfter++
		}
	}
	if okAfter == 0 {
		t.Fatal("no query succeeded after backend death; ejection never routed around the dead lane")
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.SubTimedOut == 0 {
		t.Fatalf("no sub-request timed out despite a dead backend: %+v", st)
	}
	assertConservation(t, st)
}
