package psp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/sched"
)

// The allocation budget for the dispatcher's classify→enqueue→
// dispatch→serve→trace hot path is zero: with tracing enabled, moving
// a request through the full pipeline (including publishing its
// lifecycle span and draining it into the histograms) must not touch
// the heap. The benchmark drives an unstarted server's internals from
// one goroutine — the same single-dispatcher discipline the real loop
// runs — so the measurement has no scheduler noise.

// newHotPathServer builds a server with no goroutines whose internals
// the benchmark drives directly: never started under c-FCFS, d-FCFS
// and DARC-static; under DARC started, fed typed traffic until a
// reservation is installed (before that DARC dispatches as c-FCFS and
// Algorithm 1's pass never runs), and stopped again.
func newHotPathServer(tb testing.TB, mode sched.Kind) *Server {
	tb.Helper()
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		Policy:      sched.Spec{Kind: mode},
		StaticMeans: []time.Duration{time.Millisecond, 10 * time.Millisecond},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if mode == sched.KindDARC {
		srv.Start()
		driveReservation(tb, srv)
		srv.Stop()
		// The dispatcher exits without reading the last completions.
		for w := 0; w < srv.core.Active(); w++ {
			srv.core.Release(w)
		}
	}
	// No goroutines (left); give the server a real start time so
	// s.now() yields sane offsets.
	srv.start = time.Now()
	// Pre-size every amortized structure so the measured loop sees the
	// steady state: the typed FIFOs' ring storage and the histograms'
	// bucket arrays (Reset keeps capacity).
	for i := range srv.queueDelayH {
		srv.queueDelayH[i].Record(1 << 50)
		srv.queueDelayH[i].Reset()
		srv.serviceH[i].Record(1 << 50)
		srv.serviceH[i].Reset()
	}
	return srv
}

// driveHotPath moves one request through the pipeline: dispatcher
// ingress (classify + stamp), typed-queue enqueue, dispatch to the
// worker ring, worker-side service stamps, span publish, and a trace
// drain — everything the live hot path does per request, minus the
// goroutine handoffs.
func driveHotPath(srv *Server, r *Request) {
	r.typ = srv.cfg.Classifier.Classify(r.payload)
	srv.enqueue(r, srv.now())
	srv.core.Dispatch()
	got := srv.rings[0].Get()
	started := srv.now()
	finished := srv.now()
	srv.traceSpan(srv.traceRingFor(0), 0, got, started, finished, srv.now())
	srv.core.Release(0)
	srv.FlushTrace()
}

func TestDispatchHotPathZeroAlloc(t *testing.T) {
	for _, p := range sched.LiveSpecs() {
		mode := p.Kind
		m, _ := p.Mode()
		t.Run(m.String(), func(t *testing.T) {
			srv := newHotPathServer(t, mode)
			payload := typedPayload(0, "hot")
			r := &Request{payload: payload}
			// Warm amortized growth (FIFO ring storage) out of the measurement.
			for i := 0; i < 64; i++ {
				r.arrival = srv.now()
				driveHotPath(srv, r)
			}
			avg := testing.AllocsPerRun(1000, func() {
				r.arrival = srv.now()
				driveHotPath(srv, r)
			})
			if avg != 0 {
				t.Fatalf("dispatch hot path allocates %.2f objects/op with tracing enabled, want 0", avg)
			}
			// A pass that finds every queue empty — what the dispatcher
			// does each time it is woken for nothing — is free as well.
			if idle := testing.AllocsPerRun(1000, func() { srv.core.Dispatch() }); idle != 0 {
				t.Fatalf("idle dispatch pass allocates %.2f objects, want 0", idle)
			}
			if mode != sched.KindDARC {
				return
			}
			// The first pass after a reservation swap rebuilds the core's
			// worker masks, in place. AllocsPerRun would spend that pass
			// on its warm-up call, so count the one call directly.
			for typ := 0; typ < 2; typ++ {
				srv.ctl.Observe(typ, time.Millisecond)
			}
			if !srv.ctl.ForceUpdate() {
				t.Fatal("no reservation to swap in")
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.arrival = srv.now()
			driveHotPath(srv, r)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("first pass after a reservation swap allocates %d objects, want 0", n)
			}
		})
	}
}

func BenchmarkDispatchHotPath(b *testing.B) {
	srv := newHotPathServer(b, sched.KindCFCFS)
	payload := typedPayload(0, "hot")
	r := &Request{payload: payload}
	for i := 0; i < 64; i++ {
		r.arrival = srv.now()
		driveHotPath(srv, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.arrival = srv.now()
		driveHotPath(srv, r)
	}
}

// BenchmarkDispatchHotPathUntraced isolates the tracer's cost: the
// same pipeline with lifecycle tracing disabled.
func BenchmarkDispatchHotPathUntraced(b *testing.B) {
	srv, err := NewServer(Config{
		Workers:    1,
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
	srv.start = time.Now()
	payload := typedPayload(0, "hot")
	r := &Request{payload: payload}
	for i := 0; i < 64; i++ {
		r.arrival = srv.now()
		driveHotPath(srv, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.arrival = srv.now()
		driveHotPath(srv, r)
	}
}

// drainOne pulls the next ingress request, injected by the batch path,
// and walks it through driveHotPath.
func drainOne(srv *Server) bool {
	r, ok := srv.ingress.TryGet()
	if !ok {
		return false
	}
	driveHotPath(srv, r)
	return true
}

// TestInjectBatchZeroAlloc extends the zero-alloc budget to the
// batched ingress path: stamping and ring-reserving a whole burst,
// then dispatching it, must not touch the heap either.
func TestInjectBatchZeroAlloc(t *testing.T) {
	srv := newHotPathServer(t, sched.KindCFCFS)
	payload := typedPayload(0, "hot")
	batch := make([]*Request, 32)
	for i := range batch {
		batch[i] = &Request{payload: payload}
	}
	cycle := func() {
		if n := srv.injectBatch(batch); n != len(batch) {
			t.Fatalf("injectBatch accepted %d of %d", n, len(batch))
		}
		for drainOne(srv) {
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm amortized growth out of the measurement
	}
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("batched ingress path allocates %.2f objects per burst, want 0", avg)
	}
}

// BenchmarkDispatchHotPathBatch is BenchmarkDispatchHotPath with the
// burst ingress: one injectBatch reservation for 32 requests, then the
// usual per-request pipeline. The ns/req metric is comparable to
// BenchmarkDispatchHotPath's ns/op.
func BenchmarkDispatchHotPathBatch(b *testing.B) {
	srv := newHotPathServer(b, sched.KindCFCFS)
	payload := typedPayload(0, "hot")
	batch := make([]*Request, 32)
	for i := range batch {
		batch[i] = &Request{payload: payload}
	}
	for i := 0; i < 8; i++ {
		srv.injectBatch(batch)
		for drainOne(srv) {
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.injectBatch(batch)
		for drainOne(srv) {
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/req")
}
