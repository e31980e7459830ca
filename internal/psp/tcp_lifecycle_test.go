package psp

// Connection-lifecycle battery for the pipelined TCP datapath:
// graceful drain on Close (every accepted request answered, no leaked
// goroutines or pooled buffers), idle-timeout eviction, MaxConns
// admission, sharded accept, and the oversized-frame fallback path.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
)

func newTCPServerOpts(t *testing.T, opts TCPOptions, handler Handler) *TCPServer {
	t.Helper()
	if handler == nil {
		handler = HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		})
	}
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    handler,
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
		TraceCap:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ListenTCPShards("127.0.0.1:0", srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// readResponseFrame reads one length-prefixed frame off rd.
func readResponseFrame(t *testing.T, rd *bufio.Reader) ([]byte, error) {
	t.Helper()
	var lenBuf [tcpLenPrefixSize]byte
	if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > maxTCPFrame {
		t.Fatalf("response frame length %d out of range", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(rd, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// TestTCPGracefulDrain pins the Close contract: every request already
// accepted into the pipeline is answered and flushed before the socket
// dies, no pooled buffer stays checked out, and no datapath goroutine
// survives.
func TestTCPGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := newTCPServerOpts(t, TCPOptions{}, HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
		time.Sleep(200 * time.Microsecond) // keep work in flight during Close
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
		out = appendRequestFrame(out, uint64(i+1), 0, typedPayload(i%2, "drain"))
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	// Wait until the whole burst is inside the pipeline, then close
	// with most of it still unanswered.
	for deadline := time.Now().Add(5 * time.Second); ts.Received() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests accepted", ts.Received(), n)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- ts.Close() }()

	rd := bufio.NewReader(conn)
	got := 0
	ids := make(map[uint64]bool, n)
	for {
		frame, err := readResponseFrame(t, rd)
		if err != nil {
			break // server closed the connection after the drain
		}
		hdr, _, perr := proto.DecodeHeader(frame)
		if perr != nil || hdr.Kind != proto.KindResponse {
			t.Fatalf("bad response frame: %v %+v", perr, hdr)
		}
		if ids[hdr.RequestID] {
			t.Fatalf("request %d answered twice", hdr.RequestID)
		}
		ids[hdr.RequestID] = true
		got++
	}
	if got != n {
		t.Fatalf("drain delivered %d/%d responses", got, n)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if out := ts.poolOutstanding(); out != 0 {
		t.Fatalf("%d pooled buffers leaked through Close", out)
	}
	// Every datapath goroutine (readers, TX loops, dispatcher, workers)
	// must be gone; poll because exits are asynchronous.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPIdleTimeoutEviction checks that a connection delivering no
// bytes (and owing no responses) is evicted after IdleTimeout, and
// that the eviction is counted.
func TestTCPIdleTimeoutEviction(t *testing.T) {
	ts := newTCPServerOpts(t, TCPOptions{IdleTimeout: 25 * time.Millisecond}, nil)
	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A round trip first: eviction must not fire while traffic flows.
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(typedPayload(0, "warm")); err != nil {
		t.Fatal(err)
	}
	// The idle raw connection must be closed by the server.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("idle connection not evicted: %v", err)
	}
	if ev := ts.ConnsEvicted(); ev == 0 {
		t.Fatal("eviction not counted")
	}
	for deadline := time.Now().Add(2 * time.Second); ts.ConnsOpen() > 1; {
		if time.Now().After(deadline) {
			t.Fatalf("conns_open %d after eviction", ts.ConnsOpen())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPMaxConnsAdmission checks the admission cap: connections over
// MaxConns are closed immediately and counted as rejected.
func TestTCPMaxConnsAdmission(t *testing.T) {
	ts := newTCPServerOpts(t, TCPOptions{MaxConns: 2}, nil)
	var clis []*TCPClient
	for i := 0; i < 2; i++ {
		cli, err := DialTCP(ts.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.Call(typedPayload(0, "admit")); err != nil {
			t.Fatal(err)
		}
		clis = append(clis, cli)
	}
	// The third connection must be shed at accept.
	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection over MaxConns survived")
	}
	if ts.ConnsRejected() == 0 {
		t.Fatal("rejection not counted")
	}
	// The admitted connections keep working.
	for _, cli := range clis {
		if _, err := cli.Call(typedPayload(1, "still-in")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPShardedAccept runs the multi-shard accept path (SO_REUSEPORT
// listeners on unix, shared-listener fallback elsewhere) end to end.
func TestTCPShardedAccept(t *testing.T) {
	ts := newTCPServerOpts(t, TCPOptions{Shards: 2}, nil)
	if ts.Shards() != 2 {
		t.Fatalf("shards %d", ts.Shards())
	}
	for _, a := range ts.Addrs() {
		if a.String() != ts.Addr().String() {
			t.Fatalf("shard address %v != primary %v", a, ts.Addr())
		}
	}
	const conns = 8
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			cli, err := DialTCP(ts.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 20; j++ {
				if _, err := cli.Call(typedPayload(j%2, "sharded")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < conns; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := ts.Received(); got != conns*20 {
		t.Fatalf("received %d, want %d", got, conns*20)
	}
}

// TestTCPOversizedFrameFallback drives a frame too large for a pooled
// buffer (but within maxTCPFrame) through the scratch-read, allocating
// path.
func TestTCPOversizedFrameFallback(t *testing.T) {
	ts := newTCPServerOpts(t, TCPOptions{}, nil)
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big := typedPayload(0, strings.Repeat("x", 3*tcpBufPayload))
	resp, err := cli.Call(big)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusOK {
		t.Fatalf("status %v", resp.Status)
	}
	// The echo is clipped to the worker's response scratch, but must be
	// a prefix of the request payload.
	if len(resp.Payload) == 0 || string(resp.Payload) != string(big[:len(resp.Payload)]) {
		t.Fatalf("oversized echo mismatch (%d bytes back)", len(resp.Payload))
	}
	if ts.poolOutstanding() != 0 {
		t.Fatalf("scratch path leaked %d pooled buffers", ts.poolOutstanding())
	}
}
