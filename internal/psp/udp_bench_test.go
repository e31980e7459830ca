package psp

// Loopback saturation benchmark for the UDP datapath. Each sub-bench
// blasts b.N echo requests at the server as fast as the window allows
// and reports delivered responses per second, so the unbatched
// configuration (shards=1, burst=1 — the old one-datagram-per-wakeup
// path) is directly comparable with the batched and sharded ones.
// Throughput counts only answered requests: sheds under overload slow
// the number down rather than inflating it.
//
// Meaningful numbers need a real request count, e.g.
//
//	go test ./internal/psp -run '^$' -bench UDPLoopback -benchtime 100000x

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
)

func benchUDPLoopback(b *testing.B, opts UDPOptions) {
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		Policy:   sched.Spec{Kind: sched.KindCFCFS},
		TraceCap: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	u, err := ListenUDPShards("127.0.0.1:0", srv, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer u.Close()

	conns := make([]*net.UDPConn, u.Shards())
	for i, a := range u.Addrs() {
		conns[i], err = net.DialUDP("udp", nil, a)
		if err != nil {
			b.Fatal(err)
		}
		conns[i].SetReadBuffer(4 << 20) //nolint:errcheck // response bursts while the sender runs
		defer conns[i].Close()
	}

	var got atomic.Uint64
	var recvWG sync.WaitGroup
	for _, conn := range conns {
		recvWG.Add(1)
		go func(conn *net.UDPConn) {
			defer recvWG.Done()
			buf := make([]byte, 2048)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				got.Add(1)
			}
		}(conn)
	}

	msg := proto.AppendMessage(nil, proto.Header{
		Kind:      proto.KindRequest,
		RequestID: 1,
	}, typedPayload(0, "bench"))
	// Cap outstanding requests so the kernel socket buffer is not the
	// bottleneck being measured; the window is deep enough to keep the
	// net worker's burst path saturated.
	window := uint64(512 * len(conns))

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for uint64(i)-got.Load() >= window {
			runtime.Gosched()
		}
		conns[i%len(conns)].Write(msg) //nolint:errcheck // loss shows up as missing responses
	}
	// Drain stragglers until everything answered or clearly shed.
	last, idleSince := got.Load(), time.Now()
	for got.Load() < uint64(b.N) {
		time.Sleep(time.Millisecond)
		if n := got.Load(); n != last {
			last, idleSince = n, time.Now()
		} else if time.Since(idleSince) > 200*time.Millisecond {
			break
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()

	delivered := got.Load()
	b.ReportMetric(float64(delivered)/elapsed.Seconds(), "resp/s")
	b.ReportMetric(100*float64(delivered)/float64(b.N), "%delivered")
}

func BenchmarkUDPLoopback(b *testing.B) {
	b.Run("shards=1/burst=1", func(b *testing.B) {
		benchUDPLoopback(b, UDPOptions{Shards: 1, Burst: 1})
	})
	b.Run("shards=1/burst=32", func(b *testing.B) {
		benchUDPLoopback(b, UDPOptions{Shards: 1, Burst: 32})
	})
	b.Run("shards=2/burst=32", func(b *testing.B) {
		benchUDPLoopback(b, UDPOptions{Shards: 2, Burst: 32})
	})
	b.Run("shards=4/burst=32", func(b *testing.B) {
		benchUDPLoopback(b, UDPOptions{Shards: 4, Burst: 32})
	})
}
