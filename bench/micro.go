package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/spsc"
)

// Serialized steps of the per-request path, timed from outside with
// testing.Benchmark around exported functions. Each costs at most its
// share of the per-request budget the echo workloads measure, which is
// what README.md's layer table uses them for.

// sink keeps the compiler from removing a measured call.
var sink int

// runMicros times every step for benchtime each ("200ms", or "1x" for a
// smoke test) and returns the ns and allocs per operation.
func runMicros(benchtime string) (metricSet, error) {
	testing.Init() // registers -test.benchtime; a no-op under go test
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	m := metricSet{}
	var firstErr error
	time1 := func(name string, f func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(f)
		if r.N == 0 && firstErr == nil {
			firstErr = fmt.Errorf("micro-benchmark %s failed", name)
		}
		m[name+"_ns"] = float64(r.T.Nanoseconds()) / float64(max(r.N, 1))
		return r
	}

	payload := make([]byte, 16)
	binary.LittleEndian.PutUint16(payload, 1)

	call := time1("psp.call", func(b *testing.B) {
		srv, err := persephone.NewLiveServer(persephone.LiveConfig{
			Workers:    2,
			Classifier: persephone.FieldClassifier(0, 2),
			Handler: persephone.HandlerFunc(func(_ int, p, resp []byte) (int, proto.Status) {
				return copy(resp, p), proto.StatusOK
			}),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Call(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	m["psp.call_allocs"] = float64(call.AllocsPerOp())

	time1("classify.field", func(b *testing.B) {
		c := classify.Field{Offset: 0, Types: 2}
		for i := 0; i < b.N; i++ {
			sink += c.Classify(payload)
		}
	})
	time1("classify.resp", func(b *testing.B) {
		c := classify.NewRESP("GET", "SET", "SCAN")
		req := []byte("*2\r\n$3\r\nGET\r\n$6\r\nkey123\r\n")
		for i := 0; i < b.N; i++ {
			sink += c.Classify(req)
		}
	})

	hdr := proto.Header{Kind: proto.KindRequest, TypeID: 1, RequestID: 9}
	buf := make([]byte, 0, 256)
	time1("proto.append_message", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(proto.AppendMessage(buf[:0], hdr, payload))
		}
	})
	msg := proto.AppendMessage(nil, hdr, payload)
	time1("proto.decode_header", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, _, _ := proto.DecodeHeader(msg)
			sink += int(h.PayloadLen)
		}
	})
	time1("proto.append_response", func(b *testing.B) {
		tm := proto.Timing{Queue: time.Microsecond, Service: time.Microsecond}
		for i := 0; i < b.N; i++ {
			sink += len(proto.AppendResponse(buf[:0], hdr, payload, tm))
		}
	})

	time1("spsc.ring_putget", func(b *testing.B) {
		ring := spsc.NewRing[int](1024)
		for i := 0; i < b.N; i++ {
			ring.Put(i)
			sink += ring.Get()
		}
	})
	time1("spsc.mpsc_putget", func(b *testing.B) {
		q := spsc.NewMPSC[int](1024)
		for i := 0; i < b.N; i++ {
			q.TryPut(i)
			v, _ := q.TryGet()
			sink += v
		}
	})
	time1("spsc.pool_getrelease", func(b *testing.B) {
		pool := spsc.NewPool(64, 2048)
		for i := 0; i < b.N; i++ {
			pool.Get().Release()
		}
	})

	newController := func(b *testing.B) *darc.Controller {
		cfg := darc.DefaultConfig(8)
		cfg.MinWindowSamples = 1 << 62 // the check runs, the update never fires
		ctl, err := darc.NewController(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		return ctl
	}
	time1("darc.observe", func(b *testing.B) {
		ctl := newController(b)
		for i := 0; i < b.N; i++ {
			ctl.Observe(i&1, time.Duration(i%100)*time.Microsecond)
		}
	})
	time1("darc.maybe_update", func(b *testing.B) {
		ctl := newController(b)
		for i := 0; i < 1000; i++ {
			ctl.Observe(i&1, time.Duration(i%100)*time.Microsecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ctl.MaybeUpdate() {
				sink++
			}
		}
	})
	res := time1("darc.compute_reservation", func(b *testing.B) {
		stats := []darc.TypeStats{{Mean: 2 * time.Millisecond, Ratio: 0.9}, {Mean: 40 * time.Millisecond, Ratio: 0.1}}
		cfg := darc.DefaultConfig(8)
		for i := 0; i < b.N; i++ {
			if _, err := darc.ComputeReservation(stats, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	m["darc.compute_reservation_allocs"] = float64(res.AllocsPerOp())

	time1("admission.exceeds_budget", func(b *testing.B) {
		adm := admission.New(admission.Config{Budgets: []time.Duration{time.Millisecond, 10 * time.Millisecond}}, 2,
			func(int) time.Duration { return time.Millisecond })
		for i := 0; i < b.N; i++ {
			if adm.ExceedsBudget(i&1, time.Duration(i%2000)*time.Microsecond) {
				sink++
			}
		}
	})
	time1("metrics.histogram_record", func(b *testing.B) {
		var h metrics.Histogram
		for i := 0; i < b.N; i++ {
			h.Record(int64(i%100000) + 1)
		}
	})
	time1("eventq.pushpop", func(b *testing.B) {
		// A standing population of 1024 events, as a loaded simulation has.
		var q eventq.Queue
		r := rng.New(1)
		for i := 0; i < 1024; i++ {
			q.Push(time.Duration(r.Intn(1<<20)), nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := q.Pop()
			q.Push(e.At+time.Duration(r.Intn(1<<20)), nil)
		}
	})
	time1("rng.exp", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			sink += int(r.Exp(1000))
		}
	})
	return m, firstErr
}
