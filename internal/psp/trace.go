package psp

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/spsc"
	"repro/internal/trace"
)

// Request lifecycle tracing. Every completed request carries stamps
// for each stage it crossed (ingress, classification, enqueue,
// dispatch, service start/end, reply; classification and enqueue share
// one clock reading, so the stage between them reads 0 by
// construction); the serving worker publishes the finished record as a
// trace.Span into its own fixed-capacity SPSC ring. Nothing on the hot path allocates or locks: the stats
// path (StatsSnapshot, WriteMetrics, an explicit FlushTrace) drains
// the rings under traceMu, folds each span into per-type
// QueueDelay/Service/Slowdown histograms, and forwards it to the
// optional sink (cmd/psp-server's -trace-out CSV dump). When nobody
// drains, rings overflow by dropping the newest span and counting it
// in TraceLost — tracing is free when unread.

// traceSpan publishes one completed request's lifecycle record from
// worker w's goroutine into the ring bound to it at spawn (nil when
// tracing is disabled). Allocation-free; drops (counted) when the
// ring is full.
func (s *Server) traceSpan(ring *spsc.Ring[trace.Span], w int, r *Request, started, finished, replied time.Duration) {
	if ring == nil {
		return
	}
	sp := trace.Span{
		ID:         r.id,
		Type:       r.typ,
		Worker:     w,
		Ingress:    r.arrival,
		Classified: r.enqueued,
		Enqueued:   r.enqueued,
		Dispatched: r.dispatched,
		Started:    started,
		Finished:   finished,
		Replied:    replied,
	}
	if !ring.TryPut(sp) {
		s.traceLost.Add(1)
	}
}

// SetTraceSink installs (or replaces) the span sink. Safe at any
// point in the server's life; spans drained before the sink existed
// only reached the histograms.
func (s *Server) SetTraceSink(fn func(trace.Span)) {
	s.traceMu.Lock()
	s.traceSink = fn
	s.traceMu.Unlock()
}

// FlushTrace drains every worker's span ring into the per-type
// lifecycle histograms (and the sink, if any) and returns the number
// of spans drained. Safe from any goroutine; drains serialize on the
// trace lock so the rings keep their single-consumer discipline.
func (s *Server) FlushTrace() int {
	if s.traceRings == nil {
		return 0
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	n := 0
	for _, ring := range s.traceRings {
		for {
			sp, ok := ring.TryGet()
			if !ok {
				break
			}
			s.absorbSpan(sp)
			n++
		}
	}
	s.spanCount += uint64(n)
	return n
}

// absorbSpan folds one span into the lifecycle histograms. Caller
// holds traceMu.
func (s *Server) absorbSpan(sp trace.Span) {
	idx := sp.Type
	if idx < 0 || idx >= len(s.queueDelayH)-1 {
		idx = len(s.queueDelayH) - 1 // unknown bucket
	}
	s.queueDelayH[idx].RecordDuration(sp.QueueDelay())
	svc := sp.Service()
	s.serviceH[idx].RecordDuration(svc)
	if svc > 0 {
		s.slowdownH[idx].Record(int64(float64(sp.Sojourn()) / float64(svc) * metrics.SlowdownScale))
	} else {
		s.slowdownH[idx].Record(metrics.SlowdownScale)
	}
	if s.traceSink != nil {
		s.traceSink(sp)
	}
}

// traceCounts reports drained and lost span totals.
func (s *Server) traceCounts() (spans, lost uint64) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.spanCount, s.traceLost.Load()
}

// QueueDelayQuantile reports the q-quantile lifecycle queueing delay
// (ingress to worker start) for one type; any out-of-range type
// (e.g. classify.Unknown) reads the unknown bucket. Pending spans are
// drained first.
func (s *Server) QueueDelayQuantile(typ int, q float64) time.Duration {
	s.FlushTrace()
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.queueDelayH == nil {
		return 0
	}
	if typ < 0 || typ >= len(s.queueDelayH)-1 {
		typ = len(s.queueDelayH) - 1
	}
	return s.queueDelayH[typ].QuantileDuration(q)
}

// TraceSummaryRow is one request type's lifecycle quantiles as seen
// by the tracer (queue delay = ingress→worker start; service =
// measured handler time).
type TraceSummaryRow struct {
	Name                          string
	Count                         uint64
	QueueP50, QueueP99, QueueP999 time.Duration
	SvcP50, SvcP99, SvcP999       time.Duration
}

// TraceSummaries drains pending spans and reports per-type lifecycle
// quantiles for every type with at least one completed span; the
// synthetic "unknown" row covers unclassifiable requests.
func (s *Server) TraceSummaries() []TraceSummaryRow {
	if s.traceRings == nil {
		return nil
	}
	s.FlushTrace()
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	rows := make([]TraceSummaryRow, 0, len(s.queueDelayH))
	for i := range s.queueDelayH {
		qh := &s.queueDelayH[i]
		if qh.Count() == 0 {
			continue
		}
		sh := &s.serviceH[i]
		rows = append(rows, TraceSummaryRow{
			Name:      s.typeNames[i],
			Count:     qh.Count(),
			QueueP50:  qh.QuantileDuration(0.5),
			QueueP99:  qh.QuantileDuration(0.99),
			QueueP999: qh.QuantileDuration(0.999),
			SvcP50:    sh.QuantileDuration(0.5),
			SvcP99:    sh.QuantileDuration(0.99),
			SvcP999:   sh.QuantileDuration(0.999),
		})
	}
	return rows
}

// ServiceQuantile reports the q-quantile measured handler time for
// one type, from the lifecycle trace.
func (s *Server) ServiceQuantile(typ int, q float64) time.Duration {
	s.FlushTrace()
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if s.serviceH == nil {
		return 0
	}
	if typ < 0 || typ >= len(s.serviceH)-1 {
		typ = len(s.serviceH) - 1
	}
	return s.serviceH[typ].QuantileDuration(q)
}
