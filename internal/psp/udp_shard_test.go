package psp_test

// Multi-shard datapath tests: request conservation when load is spread
// over several ingress sockets, consecutive-port binding, and the
// pool-exhaustion shed path staying live (and separately counted) when
// workers hold every ingress buffer.

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/loadgen"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/workload"
)

func newShardedServer(t *testing.T, opts psp.UDPOptions, handler psp.Handler) *psp.UDPServer {
	t.Helper()
	dcfg := darc.DefaultConfig(2)
	dcfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    handler,
		Mode:       psp.ModeCFCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := psp.ListenUDPShards("127.0.0.1:0", srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u
}

func echoHandler(typ int, p, r []byte) (int, proto.Status) {
	return copy(r, p), proto.StatusOK
}

// TestUDPMultiShardConservation spreads an open-loop run over three
// ingress shards and checks conservation on both sides of the wire:
// the client accounts for every request it sent, every shard carried
// traffic, the shard counters sum to the server's admission count, and
// the dispatcher's span-conservation invariant holds.
func TestUDPMultiShardConservation(t *testing.T) {
	const shards = 3
	u := newShardedServer(t, psp.UDPOptions{Shards: shards, Burst: 8},
		psp.HandlerFunc(echoHandler))
	if got := u.Shards(); got != shards {
		t.Fatalf("shards %d, want %d", got, shards)
	}
	addrs := make([]string, 0, shards)
	for _, a := range u.Addrs() {
		addrs = append(addrs, a.String())
	}
	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 150 * time.Millisecond
	}
	res, err := loadgen.RunUDP(strings.Join(addrs, ","), loadgen.Config{
		Mix:            workload.TwoType("short", 10*time.Microsecond, 0.9, "long", 100*time.Microsecond),
		Rate:           2000,
		Duration:       duration,
		Seed:           9,
		Timeout:        3 * time.Second,
		RequestTimeout: 200 * time.Millisecond,
		MaxRetries:     3,
		RetryBackoff:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("client lost track of %d requests: %+v", un, res)
	}
	var perShard uint64
	for i := 0; i < shards; i++ {
		rx := u.ShardReceived(i)
		if rx == 0 {
			t.Errorf("shard %d carried no traffic", i)
		}
		perShard += rx
	}
	if perShard != u.Received() {
		t.Fatalf("shard counters sum to %d, server admitted %d", perShard, u.Received())
	}
	u.Close()
	st := u.Server.StatsSnapshot()
	if st.TraceSpans+st.TraceLost+st.WorkerRestarts != st.Dispatched {
		t.Fatalf("span conservation: spans %d + lost %d + crashes %d != dispatched %d",
			st.TraceSpans, st.TraceLost, st.WorkerRestarts, st.Dispatched)
	}
}

// TestUDPShardConsecutivePorts checks the advertised binding contract:
// with a non-zero listen port, shard i binds port+i, which is what
// lets psp-client -shards expand a single address into the full list.
func TestUDPShardConsecutivePorts(t *testing.T) {
	srvFor := func() *psp.Server {
		s, err := psp.NewServer(psp.Config{
			Workers:    1,
			Classifier: classify.Field{Offset: 0, Types: 2},
			Handler:    psp.HandlerFunc(echoHandler),
			Mode:       psp.ModeCFCFS,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Ephemeral ports may collide with other listeners between probe
	// and bind; retry a few bases before declaring failure.
	for attempt := 0; attempt < 5; attempt++ {
		probe, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := probe.LocalAddr().(*net.UDPAddr).Port
		probe.Close()
		u, err := psp.ListenUDPShards("127.0.0.1:"+strconv.Itoa(base), srvFor(), psp.UDPOptions{Shards: 2})
		if err != nil {
			continue
		}
		defer u.Close()
		for i, a := range u.Addrs() {
			if a.Port != base+i {
				t.Fatalf("shard %d bound port %d, want %d", i, a.Port, base+i)
			}
		}
		return
	}
	t.Skip("no free consecutive port pair after 5 attempts")
}

// TestUDPPoolExhaustionSheds starves the ingress buffer pool (two
// buffers, slow workers holding both) and checks the shed path: excess
// datagrams are shed and counted in RxSheds — not RxDrops — while the
// net worker keeps draining the socket and the server stays live.
func TestUDPPoolExhaustionSheds(t *testing.T) {
	block := make(chan struct{})
	u := newShardedServer(t, psp.UDPOptions{Shards: 1, Burst: 4, PoolSize: 2},
		psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			<-block
			return copy(r, p), proto.StatusOK
		}))
	conn, err := net.DialUDP("udp", nil, u.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 64
	for i := 0; i < n; i++ {
		msg := proto.AppendMessage(nil, proto.Header{
			Kind:      proto.KindRequest,
			RequestID: uint64(i + 1),
		}, typedPayloadX(0, "flood"))
		conn.Write(msg) //nolint:errcheck
	}
	deadline := time.Now().Add(5 * time.Second)
	for u.RxSheds() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no sheds after %d datagrams against a 2-buffer pool (rx %d, drops %d)",
				n, u.Received(), u.RxDrops())
		}
		time.Sleep(time.Millisecond)
	}
	if u.RxDrops() != 0 {
		t.Fatalf("well-formed shed datagrams counted as drops: %d", u.RxDrops())
	}
	// Unblock the workers; the admitted requests must still complete.
	close(block)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 2048)); err != nil {
		t.Fatalf("no response after sheds: %v", err)
	}
}

// typedPayloadX mirrors the psp package's typedPayload helper for the
// external test package: 2-byte little-endian type plus a tag.
func typedPayloadX(typ int, tag string) []byte {
	p := make([]byte, 2+len(tag))
	p[0] = byte(typ)
	p[1] = byte(typ >> 8)
	copy(p[2:], tag)
	return p
}
