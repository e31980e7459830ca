package psp

// Loopback saturation benchmark for the TCP datapath, the
// BenchmarkUDPLoopback analogue: each sub-bench opens a few persistent
// connections, keeps a fixed pipeline of requests in flight on each,
// and reports delivered responses per second. The client harness is
// deliberately identical across server configurations (same framing,
// same windowing, same buffered reader/writer) so the numbers compare
// the server datapath, not the client.
//
// Meaningful numbers need a real request count, e.g.
//
//	go test ./internal/psp -run '^$' -bench TCPLoopback -benchtime 20000x

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
)

func benchTCPLoopback(b *testing.B, conns, depth int) {
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
	ts, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()

	type lane struct {
		conn      net.Conn
		wr        *bufio.Writer
		sem       chan struct{} // window: one token per in-flight request
		unflushed int
	}
	// Flushing every freed window slot would degenerate to one write
	// syscall per request in steady state; batching half a window per
	// flush keeps the pipeline full AND the syscalls amortized, for
	// the seed and the rebuilt server alike.
	flushEvery := depth / 2
	if flushEvery < 1 {
		flushEvery = 1
	}
	lanes := make([]*lane, conns)
	var got atomic.Uint64
	var recvWG sync.WaitGroup
	for i := range lanes {
		conn, err := net.Dial("tcp", ts.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		l := &lane{conn: conn, wr: bufio.NewWriterSize(conn, 1<<14), sem: make(chan struct{}, depth)}
		lanes[i] = l
		recvWG.Add(1)
		go func(l *lane) {
			defer recvWG.Done()
			rd := bufio.NewReaderSize(l.conn, 1<<16)
			var lenBuf [4]byte
			frame := make([]byte, maxTCPFrame)
			for {
				if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
					return
				}
				n := binary.LittleEndian.Uint32(lenBuf[:])
				if n > maxTCPFrame {
					return
				}
				if _, err := io.ReadFull(rd, frame[:n]); err != nil {
					return
				}
				<-l.sem
				got.Add(1)
			}
		}(l)
	}

	msg := proto.AppendMessage(make([]byte, 4, 64), proto.Header{
		Kind:      proto.KindRequest,
		RequestID: 1,
	}, typedPayload(0, "bench"))
	binary.LittleEndian.PutUint32(msg[:4], uint32(len(msg)-4))

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		l := lanes[i%conns]
		// Per-connection window: never more than `depth` outstanding.
		// The send is flushed before the window blocks so the server
		// always has the frames the tokens were taken for.
		select {
		case l.sem <- struct{}{}:
		default:
			l.wr.Flush() //nolint:errcheck
			l.unflushed = 0
			l.sem <- struct{}{}
		}
		l.wr.Write(msg) //nolint:errcheck
		l.unflushed++
		if l.unflushed >= flushEvery || i >= b.N-conns {
			l.wr.Flush() //nolint:errcheck
			l.unflushed = 0
		}
	}
	for _, l := range lanes {
		l.wr.Flush() //nolint:errcheck
	}
	// Drain stragglers until everything is answered or clearly stuck.
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
	for _, l := range lanes {
		l.conn.Close()
	}
	recvWG.Wait()
	b.ReportMetric(float64(delivered)/elapsed.Seconds(), "resp/s")
	b.ReportMetric(100*float64(delivered)/float64(b.N), "%delivered")
}

func BenchmarkTCPLoopback(b *testing.B) {
	b.Run("conns=1/depth=1", func(b *testing.B) { benchTCPLoopback(b, 1, 1) })
	b.Run("conns=1/depth=16", func(b *testing.B) { benchTCPLoopback(b, 1, 16) })
	b.Run("conns=4/depth=16", func(b *testing.B) { benchTCPLoopback(b, 4, 16) })
}

// TestTCPHotPathAllocBudget pins the steady-state allocation budget of
// the pipelined datapath: at most 1 allocation per request end to end,
// the request object. Its response routing lives in the request (no
// per-request closure), and the pooled ingress buffer, the zero-copy
// egress frame, and the batched ring handoffs must all stay
// allocation-free.
func TestTCPHotPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven")
	}
	res := testing.Benchmark(func(b *testing.B) { benchTCPLoopback(b, 1, 16) })
	if a := res.AllocsPerOp(); a > 1 {
		t.Fatalf("TCP hot path allocates %d/op, budget is 1 (the request)", a)
	}
}
