package psp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
)

func newTCPServer(t *testing.T) *TCPServer {
	t.Helper()
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func TestTCPRoundTrip(t *testing.T) {
	ts := newTCPServer(t)
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call(typedPayload(1, "over-tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusOK || resp.Type != 1 {
		t.Fatalf("resp %+v", resp)
	}
	if string(resp.Payload[2:]) != "over-tcp" {
		t.Fatalf("payload %q", resp.Payload)
	}
	if ts.Received() != 1 {
		t.Fatalf("received %d", ts.Received())
	}
}

func TestTCPConcurrentCallsOneConnection(t *testing.T) {
	ts := newTCPServer(t)
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("msg-%d", i)
			resp, err := cli.Call(typedPayload(i%2, body))
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload[2:]) != body {
				errs <- fmt.Errorf("mismatched response %q for %q", resp.Payload, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPMultipleConnections(t *testing.T) {
	ts := newTCPServer(t)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := DialTCP(ts.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 25; i++ {
				if _, err := cli.Call(typedPayload(0, "x")); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ts.Received() != 100 {
		t.Fatalf("received %d", ts.Received())
	}
}

func TestTCPBadFrameDropsConnection(t *testing.T) {
	ts := newTCPServer(t)
	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Oversized length prefix.
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 1<<30)
	if _, err := conn.Write(lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection survived protocol error")
	}
	if ts.RxDrops() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestTCPCloseUnblocksClients(t *testing.T) {
	ts := newTCPServer(t)
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, err := cli.Call(typedPayload(0, "late")); err == nil {
		t.Fatal("call on closed client succeeded")
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFramesKeepsCapacity: the TX loop gathers every batch into
// one reused iovec slice. net.Buffers.WriteTo consumes the slice it is
// called on, so writing through the loop's own slice would cost it a
// batch's worth of capacity per write and make the loop re-grow it.
func TestWriteFramesKeepsCapacity(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	c := &tcpConn{conn: dialed}
	frames := []tcpTxFrame{{msg: []byte("ab")}, {msg: []byte("cd")}, {msg: []byte("ef")}}
	const rounds = 4
	vecs := make(net.Buffers, 0, tcpTxBatch)
	for i := 0; i < rounds; i++ {
		vecs = c.writeFrames(frames, vecs)
		if len(vecs) != len(frames) || cap(vecs) != tcpTxBatch {
			t.Fatalf("after write %d: len %d cap %d, want %d and %d", i, len(vecs), cap(vecs), len(frames), tcpTxBatch)
		}
	}
	got := make([]byte, rounds*6)
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if want := strings.Repeat("abcdef", rounds); string(got) != want {
		t.Fatalf("peer read %q, want %q", got, want)
	}
}
