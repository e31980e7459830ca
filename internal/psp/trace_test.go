package psp

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/trace"
)

// newTracedServer builds an echo server with a specific trace ring
// capacity and sink.
func newTracedServer(t *testing.T, workers, traceCap int, sink func(trace.Span)) *Server {
	t.Helper()
	cfg := darc.DefaultConfig(workers)
	cfg.MinWindowSamples = 64
	if workers < 2 {
		cfg.Spillway = 0
	}
	srv, err := NewServer(Config{
		Workers:    workers,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		Mode:      ModeCFCFS,
		DARC:      cfg,
		TraceCap:  traceCap,
		TraceSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return srv
}

// TestTraceSpanConservation: every dispatched request either lands in
// the drained span count or the lost counter — no span vanishes.
func TestTraceSpanConservation(t *testing.T) {
	srv := newTracedServer(t, 2, 0, nil)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := srv.Call(typedPayload(i%2, "c")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	st := srv.StatsSnapshot()
	if st.TraceSpans+st.TraceLost != st.Dispatched {
		t.Fatalf("spans %d + lost %d != dispatched %d", st.TraceSpans, st.TraceLost, st.Dispatched)
	}
	if st.TraceLost != 0 {
		t.Fatalf("default ring capacity lost %d spans over %d requests", st.TraceLost, n)
	}
	if st.TraceSpans != n {
		t.Fatalf("spans %d, want %d", st.TraceSpans, n)
	}
}

// TestTraceStagesMonotone: each span's stamps advance through the
// pipeline in stage order, and the derived durations match the
// response's decomposition.
func TestTraceStagesMonotone(t *testing.T) {
	var spans []trace.Span
	srv := newTracedServer(t, 2, 0, func(sp trace.Span) { spans = append(spans, sp) })
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := srv.Call(typedPayload(i%2, "m")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop() // final flush; the sink slice is complete after this
	if len(spans) != n {
		t.Fatalf("sink saw %d spans, want %d", len(spans), n)
	}
	seen := make(map[uint64]bool, n)
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span for request %d", sp.ID)
		}
		seen[sp.ID] = true
		assertStagesInOrder(t, sp)
		if sp.Worker < 0 || sp.Worker >= 2 {
			t.Fatalf("span %d: worker %d out of range", sp.ID, sp.Worker)
		}
		if sp.Type != 0 && sp.Type != 1 {
			t.Fatalf("span %d: type %d", sp.ID, sp.Type)
		}
		if sp.QueueDelay() < 0 || sp.Service() < 0 || sp.Sojourn() < sp.Service() {
			t.Fatalf("span %d: inconsistent decomposition %+v", sp.ID, sp)
		}
	}
}

// assertStagesInOrder fails unless sp's stamps advance through the
// pipeline in stage order.
func assertStagesInOrder(t *testing.T, sp trace.Span) {
	t.Helper()
	stages := []struct {
		name string
		at   time.Duration
	}{
		{"ingress", sp.Ingress},
		{"classified", sp.Classified},
		{"enqueued", sp.Enqueued},
		{"dispatched", sp.Dispatched},
		{"started", sp.Started},
		{"finished", sp.Finished},
		{"replied", sp.Replied},
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].at < stages[i-1].at {
			t.Fatalf("span %d: %s (%v) precedes %s (%v)",
				sp.ID, stages[i].name, stages[i].at, stages[i-1].name, stages[i-1].at)
		}
	}
}

// TestTimingIdentities: the worker derives a reply's timing trailer
// from the same clock readings its span records, so over both
// datapaths every span's stages are in order and the trailer's Queue
// and Service equal the span's Started − Ingress and Finished − Started
// to the nanosecond.
func TestTimingIdentities(t *testing.T) {
	const n = 50
	for _, network := range []string{"udp", "tcp"} {
		t.Run(network, func(t *testing.T) {
			var spans []trace.Span
			srv, err := NewServer(Config{
				Workers:    2,
				Classifier: classify.Field{Offset: 0, Types: 2},
				Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
					return copy(r, p), proto.StatusOK
				}),
				TraceSink: func(sp trace.Span) { spans = append(spans, sp) },
			})
			if err != nil {
				t.Fatal(err)
			}
			// One request outstanding at a time, so server-side request
			// IDs, and therefore spans sorted by ID, follow reply order.
			timings := make([]proto.Timing, 0, n)
			switch network {
			case "udp":
				u, err := ListenUDP("127.0.0.1:0", srv)
				if err != nil {
					t.Fatal(err)
				}
				conn := udpClient(t, u.Addr())
				buf := make([]byte, 2048)
				for i := 0; i < n; i++ {
					msg := proto.AppendMessage(nil, proto.Header{Kind: proto.KindRequest, RequestID: uint64(i)}, typedPayload(i%2, "id"))
					if _, err := conn.Write(msg); err != nil {
						t.Fatal(err)
					}
					conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
					sz, err := conn.Read(buf)
					if err != nil {
						t.Fatalf("reply %d: %v", i, err)
					}
					hdr, _, err := proto.DecodeHeader(buf[:sz])
					if err != nil {
						t.Fatal(err)
					}
					tm, ok := proto.DecodeTiming(buf[:sz], hdr)
					if !ok {
						t.Fatalf("reply %d carries no timing trailer", i)
					}
					timings = append(timings, tm)
				}
				u.Close() // stops the server: the sink holds every span
			case "tcp":
				ts, err := ListenTCP("127.0.0.1:0", srv)
				if err != nil {
					t.Fatal(err)
				}
				cli, err := DialTCP(ts.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					resp, err := cli.Call(typedPayload(i%2, "id"))
					if err != nil {
						t.Fatal(err)
					}
					timings = append(timings, proto.Timing{Queue: resp.QueueDelay, Service: resp.Service})
				}
				cli.Close()
				ts.Close()
			}
			if len(spans) != n {
				t.Fatalf("%d spans for %d replies", len(spans), n)
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID })
			for i, sp := range spans {
				assertStagesInOrder(t, sp)
				if got, want := timings[i].Service, sp.Finished-sp.Started; got != want {
					t.Fatalf("reply %d: trailer service %v, span finished − started %v", i, got, want)
				}
				if got, want := timings[i].Queue, sp.Started-sp.Ingress; got != want {
					t.Fatalf("reply %d: trailer queue %v, span started − ingress %v", i, got, want)
				}
			}
		})
	}
}

// TestTraceDisabled: TraceCap < 0 turns the tracer off entirely.
func TestTraceDisabled(t *testing.T) {
	srv := newTracedServer(t, 1, -1, nil)
	for i := 0; i < 20; i++ {
		if _, err := srv.Call(typedPayload(0, "d")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	st := srv.StatsSnapshot()
	if st.TraceSpans != 0 || st.TraceLost != 0 {
		t.Fatalf("disabled tracer recorded spans=%d lost=%d", st.TraceSpans, st.TraceLost)
	}
	if got := srv.QueueDelayQuantile(0, 0.99); got != 0 {
		t.Fatalf("disabled tracer quantile %v", got)
	}
	if rows := srv.TraceSummaries(); rows != nil {
		t.Fatalf("disabled tracer summaries %v", rows)
	}
	if n := srv.FlushTrace(); n != 0 {
		t.Fatalf("disabled tracer flushed %d", n)
	}
}

// TestTraceRingOverflow: a tiny ring drops (and counts) spans instead
// of blocking the worker or allocating.
func TestTraceRingOverflow(t *testing.T) {
	srv := newTracedServer(t, 1, 2, nil)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := srv.Call(typedPayload(0, "o")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	st := srv.StatsSnapshot()
	if st.TraceLost == 0 {
		t.Fatalf("capacity-2 ring lost nothing over %d sequential calls", n)
	}
	if st.TraceSpans+st.TraceLost != st.Dispatched {
		t.Fatalf("spans %d + lost %d != dispatched %d", st.TraceSpans, st.TraceLost, st.Dispatched)
	}
}

// TestTraceQuantiles: the per-type accessors and summaries reflect
// completed requests.
func TestTraceQuantiles(t *testing.T) {
	srv := newTracedServer(t, 2, 0, nil)
	for i := 0; i < 100; i++ {
		if _, err := srv.Call(typedPayload(i%2, "q")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	for typ := 0; typ < 2; typ++ {
		if d := srv.ServiceQuantile(typ, 0.5); d <= 0 {
			t.Fatalf("type %d service p50 = %v", typ, d)
		}
		if d := srv.QueueDelayQuantile(typ, 0.5); d < 0 {
			t.Fatalf("type %d queue p50 = %v", typ, d)
		}
	}
	rows := srv.TraceSummaries()
	if len(rows) != 2 {
		t.Fatalf("summaries %v, want 2 rows", rows)
	}
	var total uint64
	for _, row := range rows {
		total += row.Count
		if row.SvcP50 <= 0 || row.SvcP999 < row.SvcP50 {
			t.Fatalf("row %+v has non-increasing service quantiles", row)
		}
		if row.QueueP999 < row.QueueP50 {
			t.Fatalf("row %+v has non-increasing queue quantiles", row)
		}
	}
	if total != 100 {
		t.Fatalf("summary counts total %d, want 100", total)
	}
}

// TestLiveTraceReplay is the sim-vs-live loop in miniature: serve
// requests, dump lifecycle spans through the CSV sink, parse the dump
// back, project it to an arrival trace, and replay it through the
// simulator.
func TestLiveTraceReplay(t *testing.T) {
	var buf bytes.Buffer
	sw := trace.NewSpanWriter(&buf)
	srv := newTracedServer(t, 2, 0, func(sp trace.Span) {
		if err := sw.Write(sp); err != nil {
			t.Errorf("span write: %v", err)
		}
	})
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := srv.Call(typedPayload(i%2, "r")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != n {
		t.Fatalf("dumped %d spans, want %d", sw.Count(), n)
	}

	spans, err := trace.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != n {
		t.Fatalf("parsed %d spans, want %d", len(spans), n)
	}
	tr := trace.SpanTrace(spans)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("projected trace has %d records, want %d", tr.Len(), n)
	}

	res, err := cluster.Run(cluster.Config{
		Workers:   2,
		Trace:     tr,
		Seed:      1,
		NewPolicy: func() cluster.Policy { return policy.NewCFCFS(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Machine.Completed() + res.Machine.Dropped(); got != n {
		t.Fatalf("replay completed %d + dropped %d, want %d arrivals accounted",
			res.Machine.Completed(), res.Machine.Dropped(), n)
	}
}

// TestTCPTimingTrailer: the response's timing trailer survives the
// wire and surfaces the lifecycle decomposition at the client.
func TestTCPTimingTrailer(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			// A handler slow enough that measured service is nonzero at
			// coarse clock granularity.
			time.Sleep(200 * time.Microsecond)
			return copy(r, p), proto.StatusOK
		}),
		Mode: ModeCFCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	cli, err := DialTCP(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		resp, err := cli.Call(typedPayload(0, fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Service <= 0 {
			t.Fatalf("call %d: no service timing on the wire: %+v", i, resp)
		}
		if resp.QueueDelay < 0 {
			t.Fatalf("call %d: negative queue delay %v", i, resp.QueueDelay)
		}
	}
}
