package psp

import (
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Satellite tests for the unclassifiable-request path: requests the
// classifier cannot type (classify.Unknown) must route through the
// unknown queue to a spillway core, still produce a reply, and stay
// inside the span-conservation invariant — under every worker/spillway
// configuration, including Spillway=0 with a DARC reservation
// installed (which used to starve the unknown queue forever).

// driveReservation runs typed traffic until the DARC controller
// installs a reservation.
func driveReservation(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Controller().Reservation() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no reservation installed after 5s of typed traffic")
		}
		for i := 0; i < 100; i++ {
			if _, err := srv.Call(typedPayload(i%2, "warm")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUnknownServedOnSpillwayWorker(t *testing.T) {
	var mu sync.Mutex
	var spans []trace.Span
	cfg := darc.DefaultConfig(4)
	cfg.MinWindowSamples = 64
	cfg.Spillway = 1
	srv, err := NewServer(Config{
		Workers:    4,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{serviceByType: []time.Duration{time.Microsecond, time.Microsecond}},
		Policy:     sched.Spec{Kind: sched.KindDARC},
		DARC:       cfg,
		TraceSink: func(sp trace.Span) {
			mu.Lock()
			spans = append(spans, sp)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	driveReservation(t, srv)
	res := srv.Controller().Reservation()
	if len(res.SpillwayWorkers) == 0 {
		t.Fatalf("reservation has no spillway workers: %+v", res)
	}
	spillway := map[int]bool{}
	for _, w := range res.SpillwayWorkers {
		spillway[w] = true
	}

	// Payloads carrying a type beyond the classifier's range are
	// Unknown; each must still produce a reply.
	const unknowns = 20
	for i := 0; i < unknowns; i++ {
		resp, err := srv.Call(typedPayload(7, "mystery"))
		if err != nil {
			t.Fatalf("unknown request %d: %v", i, err)
		}
		if resp.Type != classify.Unknown {
			t.Fatalf("unknown request %d classified as %d", i, resp.Type)
		}
		if resp.Status != proto.StatusOK {
			t.Fatalf("unknown request %d status = %v", i, resp.Status)
		}
	}
	srv.Stop()

	mu.Lock()
	defer mu.Unlock()
	var servedUnknown int
	for _, sp := range spans {
		if sp.Type >= 0 {
			continue
		}
		servedUnknown++
		if !spillway[sp.Worker] {
			t.Fatalf("unknown request served on worker %d, not a spillway core %v",
				sp.Worker, res.SpillwayWorkers)
		}
	}
	if servedUnknown != unknowns {
		t.Fatalf("unknown spans = %d, want %d", servedUnknown, unknowns)
	}
	// Span conservation includes the unknown requests.
	st := srv.StatsSnapshot()
	if st.TraceSpans+st.TraceLost != st.Dispatched {
		t.Fatalf("span conservation: spans %d + lost %d != dispatched %d",
			st.TraceSpans, st.TraceLost, st.Dispatched)
	}
}

func TestUnknownServedWithoutSpillwayCores(t *testing.T) {
	// Workers=1 forces Spillway=0. Once a reservation installs, the
	// unknown queue has no designated cores; it must fall back to any
	// free worker instead of starving.
	srv := newEchoServer(t, 1, sched.KindDARC)
	driveReservation(t, srv)
	if res := srv.Controller().Reservation(); len(res.SpillwayWorkers) != 0 {
		t.Fatalf("single-worker reservation has spillway workers: %+v", res)
	}
	done := make(chan Response, 1)
	go func() {
		resp, err := srv.Call(typedPayload(9, "unknown"))
		if err != nil {
			close(done)
			return
		}
		done <- resp
	}()
	select {
	case resp, ok := <-done:
		if !ok {
			t.Fatal("unknown request errored")
		}
		if resp.Type != classify.Unknown || resp.Status != proto.StatusOK {
			t.Fatalf("unknown response: type=%d status=%v", resp.Type, resp.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unknown request starved with Spillway=0 and a reservation installed")
	}
	// The unknown row must appear in the per-type summaries.
	WaitSpansSettled(t, srv)
	var found bool
	for _, row := range srv.TraceSummaries() {
		if row.Name == "unknown" && row.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no 'unknown' row in trace summaries")
	}
}

func TestUnknownRepliesOverUDP(t *testing.T) {
	// End-to-end over the wire: an unclassifiable datagram still gets
	// a reply on the pending-reply path.
	u := newUDPServer(t)
	conn := udpClient(t, u.Addr())
	payload := typedPayload(9, "over-the-wire") // type 9 of 2 -> Unknown
	msg := proto.AppendMessage(nil, proto.Header{
		Kind:      proto.KindRequest,
		RequestID: 77,
	}, payload)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal("no reply for an unclassifiable datagram:", err)
	}
	h, body, perr := proto.DecodeHeader(buf[:n])
	if perr != nil {
		t.Fatal(perr)
	}
	if h.RequestID != 77 || h.Status != proto.StatusOK {
		t.Fatalf("header %+v", h)
	}
	if string(body) != string(payload) {
		t.Fatalf("body = %q", body)
	}
}
