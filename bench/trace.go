package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	persephone "repro"
)

// The traced pass. Spans are recorded from the benchmark's own files:
// the client's clock around each request, the two intervals the
// response's timing trailer reports, and the servers' lifecycle spans
// through the public TraceSink. Everything stays in memory until the
// run is over.

// stage is one hop of the server's request lifecycle.
type stage struct {
	name string
	dur  func(persephone.TraceSpan) time.Duration
}

var stages = []stage{
	{"psp.ingress_to_classified", func(s persephone.TraceSpan) time.Duration { return s.Classified - s.Ingress }},
	{"psp.classified_to_enqueued", func(s persephone.TraceSpan) time.Duration { return s.Enqueued - s.Classified }},
	{"psp.enqueued_to_dispatched", func(s persephone.TraceSpan) time.Duration { return s.Dispatched - s.Enqueued }},
	{"psp.dispatched_to_started", func(s persephone.TraceSpan) time.Duration { return s.Started - s.Dispatched }},
	{"psp.started_to_finished", func(s persephone.TraceSpan) time.Duration { return s.Finished - s.Started }},
	{"psp.finished_to_replied", func(s persephone.TraceSpan) time.Duration { return s.Replied - s.Finished }},
}

// stageMetrics reduces the server spans of a traced run to per-stage
// quantiles. stageSum is the sum of the stage medians, to hold against
// the sojourn median.
func stageMetrics(spans []persephone.TraceSpan) (m metricSet, stageSum float64) {
	m = metricSet{}
	if len(spans) == 0 {
		return m, 0
	}
	xs := make([]float64, len(spans))
	for _, st := range stages {
		for i, sp := range spans {
			xs[i] = float64(st.dur(sp))
		}
		p50 := quantileOf(xs, 0.50)
		m[st.name+"_p50_ns"] = p50
		m[st.name+"_p99_ns"] = quantile(xs, 0.99)
		stageSum += p50
	}
	for i, sp := range spans {
		xs[i] = float64(sp.Sojourn())
	}
	m["psp.sojourn_p50_ns"] = quantileOf(xs, 0.50)
	return m, stageSum
}

// spanFileCap bounds how many client requests and how many server
// requests a span file holds; the metrics use every span.
const spanFileCap = 5000

// spanLine is one line of <workload>.spans.jsonl. Client spans count
// nanoseconds from the start of the measured interval on the client's
// clock, server spans from the start of their server.
type spanLine struct {
	Trace  string `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the head of a traced run: per client request a
// root client.request (due or sent → reply read) with children
// client.late, psp.queue and psp.handler, its self time being
// net.residual; per server request a root psp.request with one child
// per stage. The trailer gives the two server intervals as durations,
// so they are placed by splitting the residual evenly between the way
// in and the way out.
func writeSpans(dir string, run *liveRun) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, run.spec.name+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	emit := func(l spanLine) {
		if err == nil {
			err = enc.Encode(l)
		}
	}

	written := 0
	for _, s := range run.samples {
		if s.start < run.t0 || s.outcome != outcomeOK {
			continue
		}
		if written++; written > spanFileCap {
			break
		}
		id := fmt.Sprintf("client-%d", written)
		start := s.start - run.t0
		end := start + int64(s.lat)
		sent := start + int64(s.late)
		oneWay := max(end-sent-int64(s.queue)-int64(s.service), 0) / 2
		emit(spanLine{id, 1, 0, "client.request", start, end})
		emit(spanLine{id, 2, 1, "client.late", start, sent})
		emit(spanLine{id, 3, 1, "psp.queue", sent + oneWay, sent + oneWay + int64(s.queue)})
		emit(spanLine{id, 4, 1, "psp.handler", sent + oneWay + int64(s.queue), sent + oneWay + int64(s.queue) + int64(s.service)})
	}
	for i, sp := range run.spans {
		if i >= spanFileCap {
			break
		}
		id := fmt.Sprintf("server-%d-w%d", sp.ID, sp.Worker)
		emit(spanLine{id, 1, 0, "psp.request", int64(sp.Ingress), int64(sp.Replied)})
		at := sp.Ingress
		for k, st := range stages {
			emit(spanLine{id, k + 2, 1, st.name, int64(at), int64(at + st.dur(sp))})
			at += st.dur(sp)
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}
