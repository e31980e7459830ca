package psp

// Shed-path battery for the pipelined TCP datapath: starving the
// per-shard ingress buffer pool must shed the excess frames with an
// immediate StatusDropped (never a silent drop), the connection must
// stay usable, and every frame sent is still answered exactly once.
// With a one-slot TX ring the shed replies also exercise the inline
// write fallback. Companion to the UDP pool-exhaustion test in
// udp_shard_test.go.

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/trace"
)

// TestTCPPoolExhaustionSheds floods one pipelined connection against a
// 2-buffer pool whose only two admitted requests are parked on a
// blocked handler: every further frame must be shed with StatusDropped
// (counted in RxSheds, not RxDrops), and once the handler unblocks the
// admitted requests still complete — ok + dropped replies account for
// every frame sent.
func TestTCPPoolExhaustionSheds(t *testing.T) {
	block := make(chan struct{})
	ts := newTCPServerOpts(t, TCPOptions{Shards: 1, Burst: 4, PoolSize: 2, TXRing: 1},
		HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			<-block
			return copy(r, p), proto.StatusOK
		}))
	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 64
	var out []byte
	for i := 0; i < n; i++ {
		out = appendRequestFrame(out, uint64(i+1), 0, typedPayload(0, "flood"))
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.RxSheds() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no sheds after %d frames against a 2-buffer pool (rx %d, drops %d)",
				n, ts.Received(), ts.RxDrops())
		}
		time.Sleep(time.Millisecond)
	}
	if ts.RxDrops() != 0 {
		t.Fatalf("well-formed shed frames counted as drops: %d", ts.RxDrops())
	}
	// Unblock the parked workers; the admitted requests must complete
	// and every one of the n frames must have exactly one reply.
	close(block)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	rd := bufio.NewReaderSize(conn, 1<<16)
	ok, dropped := 0, 0
	for i := 0; i < n; i++ {
		frame, err := readResponseFrame(t, rd)
		if err != nil {
			t.Fatalf("reply %d/%d: %v (ok %d, dropped %d)", i+1, n, err, ok, dropped)
		}
		hdr, _, derr := proto.DecodeHeader(frame)
		if derr != nil || hdr.Kind != proto.KindResponse {
			t.Fatalf("bad response frame: %v", derr)
		}
		switch hdr.Status {
		case proto.StatusOK:
			ok++
		case proto.StatusDropped:
			dropped++
		default:
			t.Fatalf("unexpected status %v for request %d", hdr.Status, hdr.RequestID)
		}
	}
	if ok == 0 || dropped == 0 || ok+dropped != n {
		t.Fatalf("replies ok=%d dropped=%d, want both non-zero summing to %d", ok, dropped, n)
	}
	if got := ts.RxSheds(); got != uint64(dropped) {
		t.Fatalf("RxSheds %d != StatusDropped replies %d", got, dropped)
	}
}

// TestSetTraceSinkLateInstall pins the SetTraceSink contract: a sink
// installed after construction (and after traffic already drained to
// the histograms alone) observes every span flushed from then on.
func TestSetTraceSinkLateInstall(t *testing.T) {
	srv := newTracedServer(t, 2, 0, nil)
	defer srv.Stop()
	if _, err := srv.Call(typedPayload(0, "pre-sink")); err != nil {
		t.Fatal(err)
	}
	WaitSpansSettled(t, srv) // drained without a sink: histograms only
	var spans []trace.Span
	srv.SetTraceSink(func(sp trace.Span) { spans = append(spans, sp) })
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := srv.Call(typedPayload(i%2, "post-sink")); err != nil {
			t.Fatal(err)
		}
	}
	WaitSpansSettled(t, srv)
	if len(spans) != n {
		t.Fatalf("sink saw %d spans, want %d", len(spans), n)
	}
	for _, sp := range spans {
		if sp.Type != 0 && sp.Type != 1 {
			t.Fatalf("span with unexpected type %d", sp.Type)
		}
	}
}
