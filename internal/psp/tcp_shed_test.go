package psp

// Shed-path battery for the pipelined TCP datapath: starving the
// per-shard ingress buffer pool, or filling the ingress ring, must shed
// the excess frames with an immediate StatusDropped (never a silent
// drop), the connection must stay usable, and every frame sent is
// still answered exactly once.
// With a one-slot TX ring the shed replies also exercise the inline
// write fallback. Companion to the UDP pool-exhaustion test in
// udp_shard_test.go.

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestTCPPoolExhaustionSheds floods one pipelined connection until the
// server must refuse frames, once for each reason a stream refuses
// one: the shard's buffer pool is exhausted (a 2-buffer pool whose
// only two admitted requests are parked on a blocked handler), or the
// ingress ring is full (a blocked classifier stalls the dispatcher;
// the pool is larger than the ring, so it never runs dry). Either
// way every refused frame must be answered StatusDropped and counted
// in RxSheds, not RxDrops; once the stall lifts the admitted requests
// still complete, and ok + dropped replies account for every frame
// sent.
func TestTCPPoolExhaustionSheds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  TCPOptions
		n     int
		stall string // "handler" or "classifier"
	}{
		{"pool-exhausted", TCPOptions{Shards: 1, Burst: 4, PoolSize: 2, TXRing: 1}, 64, "handler"},
		{"ring-full", TCPOptions{Shards: 1, PoolSize: ingressCap + 1024, TXRing: 1}, ingressCap + 512, "classifier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			block := make(chan struct{})
			var unblock sync.Once
			field := classify.Field{Offset: 0, Types: 2}
			cfg := Config{
				Workers:    2,
				Classifier: field,
				Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
					if tc.stall == "handler" {
						<-block
					}
					return copy(r, p), proto.StatusOK
				}),
				Policy:   sched.Spec{Kind: sched.KindCFCFS},
				TraceCap: -1,
			}
			if tc.stall == "classifier" {
				cfg.Classifier = classify.Func{Types: 2, F: func(p []byte) int {
					<-block
					return field.Classify(p)
				}}
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := ListenTCPShards("127.0.0.1:0", srv, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			// Lift the stall before Close, which waits on the dispatcher.
			defer unblock.Do(func() { close(block) })
			conn, err := net.Dial("tcp", ts.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var out []byte
			for i := 0; i < tc.n; i++ {
				out = appendRequestFrame(out, uint64(i+1), 0, typedPayload(0, "flood"))
			}
			if _, err := conn.Write(out); err != nil {
				t.Fatal(err)
			}
			// Every frame is read and either admitted or refused while
			// the stall holds.
			deadline := time.Now().Add(5 * time.Second)
			for ts.Received()+ts.RxSheds() != uint64(tc.n) || ts.RxSheds() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("after %d frames: rx %d, sheds %d, drops %d; want every frame admitted or shed, some shed",
						tc.n, ts.Received(), ts.RxSheds(), ts.RxDrops())
				}
				time.Sleep(time.Millisecond)
			}
			if ts.RxDrops() != 0 {
				t.Fatalf("well-formed shed frames counted as drops: %d", ts.RxDrops())
			}
			// Lift the stall; the admitted requests must complete and
			// every one of the n frames must have exactly one reply.
			unblock.Do(func() { close(block) })
			conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			rd := bufio.NewReaderSize(conn, 1<<16)
			ok, dropped := 0, 0
			for i := 0; i < tc.n; i++ {
				frame, err := readResponseFrame(t, rd)
				if err != nil {
					t.Fatalf("reply %d/%d: %v (ok %d, dropped %d)", i+1, tc.n, err, ok, dropped)
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
			if ok == 0 || dropped == 0 || ok+dropped != tc.n {
				t.Fatalf("replies ok=%d dropped=%d, want both non-zero summing to %d", ok, dropped, tc.n)
			}
			// A typed queue that overflows once the dispatcher resumes
			// drops too, also answered StatusDropped.
			if got, qd := ts.RxSheds(), srv.StatsSnapshot().Dropped; got+qd != uint64(dropped) {
				t.Fatalf("RxSheds %d + queue drops %d != StatusDropped replies %d", got, qd, dropped)
			}
		})
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
