package psp_test

// Multi-shard datapath tests: request conservation when load is spread
// over several ingress sockets, consecutive-port binding, and the
// pool-exhaustion shed path staying live (and separately counted) when
// workers hold every ingress buffer.

import (
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/loadgen"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
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
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
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
// lets `psp client -shards` expand a single address into the full list.
func TestUDPShardConsecutivePorts(t *testing.T) {
	srvFor := func() *psp.Server {
		s, err := psp.NewServer(psp.Config{
			Workers:    1,
			Classifier: classify.Field{Offset: 0, Types: 2},
			Handler:    psp.HandlerFunc(echoHandler),
			Policy:     sched.Spec{Kind: sched.KindCFCFS},
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

// TestUDPPoolExhaustionSheds floods one shard until it must refuse
// datagrams, once for each reason a shard refuses one. When the buffer
// pool is exhausted (two buffers, slow workers holding both) the
// excess is shed and counted in RxSheds — not RxDrops — while the net
// worker keeps draining the socket and the server stays live. When
// the ingress ring is full (a blocked classifier stalls the
// dispatcher; the pool is larger than the ring, so it never runs dry)
// the refused tail is dropped and counted in RxDrops, and no reply is
// ever sent for it: once the stall lifts, exactly the admitted
// datagrams are answered.
func TestUDPPoolExhaustionSheds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  psp.UDPOptions
		n     int
		stall string // "handler" or "classifier"
	}{
		{"pool-exhausted", psp.UDPOptions{Shards: 1, Burst: 4, PoolSize: 2}, 64, "handler"},
		{"ring-full", psp.UDPOptions{Shards: 1, PoolSize: psp.IngressCap + 1024}, psp.IngressCap + 512, "classifier"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			block := make(chan struct{})
			var unblock sync.Once
			field := classify.Field{Offset: 0, Types: 2}
			cfg := psp.Config{
				Workers:    2,
				Classifier: field,
				Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
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
			srv, err := psp.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			u, err := psp.ListenUDPShards("127.0.0.1:0", srv, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			// Lift the stall before Close, which waits on the dispatcher.
			defer unblock.Do(func() { close(block) })
			conn, err := net.DialUDP("udp", nil, u.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadBuffer(4 << 20) //nolint:errcheck // best effort
			for i := 0; i < tc.n; i++ {
				msg := proto.AppendMessage(nil, proto.Header{
					Kind:      proto.KindRequest,
					RequestID: uint64(i + 1),
				}, typedPayloadX(0, "flood"))
				conn.Write(msg) //nolint:errcheck
			}
			refused := u.RxSheds
			if tc.stall == "classifier" {
				refused = u.RxDrops
			}
			// Wait for refusals, then for the shard to go quiet: loopback
			// may lose a datagram, so the counts need not reach n.
			deadline := time.Now().Add(5 * time.Second)
			for last := uint64(0); ; time.Sleep(20 * time.Millisecond) {
				seen := u.Received() + u.RxSheds() + u.RxDrops()
				if refused() > 0 && (seen == last || seen == uint64(tc.n)) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after %d datagrams: rx %d, sheds %d, drops %d; want some refused",
						tc.n, u.Received(), u.RxSheds(), u.RxDrops())
				}
				last = seen
			}
			if tc.stall == "handler" && u.RxDrops() != 0 {
				t.Fatalf("well-formed shed datagrams counted as drops: %d", u.RxDrops())
			}
			if tc.stall == "classifier" && u.RxSheds() != 0 {
				t.Fatalf("ring-full refusals counted as pool sheds: %d", u.RxSheds())
			}
			// Lift the stall; the admitted requests must complete.
			unblock.Do(func() { close(block) })
			admitted := u.Received()
			replies := uint64(0)
			buf := make([]byte, 2048)
			for {
				// Wait past the last expected reply for any reply to a
				// refused datagram.
				wait := 5 * time.Second
				if replies >= admitted {
					wait = 200 * time.Millisecond
				}
				conn.SetReadDeadline(time.Now().Add(wait)) //nolint:errcheck
				if _, err := conn.Read(buf); err != nil {
					break
				}
				replies++
			}
			if replies == 0 {
				t.Fatal("no response after refusals")
			}
			if tc.stall == "classifier" && replies != admitted {
				t.Fatalf("%d replies for %d admitted datagrams (%d refused)", replies, admitted, u.RxDrops())
			}
		})
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
