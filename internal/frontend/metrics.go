package frontend

import (
	"io"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// WriteMetrics renders the frontend's query-level counters, latency
// quantiles, and per-backend health gauges in the Prometheus text
// exposition format. The output shape is golden-pinned by the metrics
// test — add new series at the end.
func (f *Frontend) WriteMetrics(w io.Writer) error {
	st := f.Stats()
	var p metrics.Page
	p.Counter("persephone_frontend_queries_total", "Client queries accepted for fan-out.", st.Queries)
	p.Counter("persephone_frontend_queries_ok_total", "Queries answered with every shard settled.", st.QueriesOK)
	p.Counter("persephone_frontend_queries_failed_total", "Queries answered with an error after a shard deadline.", st.QueriesFailed)
	p.Counter("persephone_frontend_queries_shed_total", "Queries rejected at intake (buffer pool exhausted or no healthy backend).", st.QueriesShed)

	const sub = "persephone_frontend_subrequests_total"
	p.Family(sub, "counter", "Sub-request transmissions by outcome (issued = replied + duplicate + timeout + nacked + pending).")
	p.Sample(sub, st.SubIssued, "outcome", "issued")
	p.Sample(sub, st.SubReplied, "outcome", "replied")
	p.Sample(sub, st.SubDuplicate, "outcome", "duplicate")
	p.Sample(sub, st.SubTimedOut, "outcome", "timeout")
	p.Sample(sub, st.SubNacked, "outcome", "nacked")
	p.Gauge("persephone_frontend_subrequests_pending", "Sub-requests currently awaiting a backend reply.", st.Pending)
	p.Counter("persephone_frontend_stray_replies_total", "Backend replies matching no pending sub-request.", st.Strays)

	p.Counter("persephone_frontend_hedges_total", "Hedge transmissions issued for slow sub-requests.", st.Hedges)
	p.Counter("persephone_frontend_hedge_wins_total", "Hedge transmissions whose reply settled the shard first.", st.HedgeWins)
	p.Counter("persephone_frontend_ejections_total", "Backend health ejections (timeout streaks and crash events).", st.Ejections)

	if st.QueryCount > 0 {
		const lat = "persephone_frontend_query_latency_seconds"
		p.Family(lat, "summary", "Client-observed query latency quantiles (slowest-shard completion).")
		p.Sample(lat, st.QueryP50.Seconds(), "quantile", "0.5")
		p.Sample(lat, st.QueryP99.Seconds(), "quantile", "0.99")
		p.Sample(lat, st.QueryP999.Seconds(), "quantile", "0.999")
		p.Sample(lat+"_count", st.QueryCount)
	}

	p.Family("persephone_frontend_backend_healthy", "gauge", "Whether the backend currently receives sub-requests (1 healthy, 0 ejected).")
	now := time.Now()
	for i, h := range f.health {
		v := 0
		if h.healthy(now) {
			v = 1
		}
		p.Sample("persephone_frontend_backend_healthy", v, "backend", strconv.Itoa(i))
	}
	p.Family("persephone_frontend_backend_sent_total", "counter", "Sub-request transmissions per backend.")
	for i, bc := range f.backends {
		p.Sample("persephone_frontend_backend_sent_total", bc.sent.Load(), "backend", strconv.Itoa(i))
	}
	p.Family("persephone_frontend_backend_replies_total", "counter", "Settling replies per backend.")
	for i, bc := range f.backends {
		p.Sample("persephone_frontend_backend_replies_total", bc.replies.Load(), "backend", strconv.Itoa(i))
	}
	p.Counter("persephone_frontend_rx_drops_total", "Malformed client datagrams dropped at intake.", st.RxDrops)
	_, err := p.WriteTo(w)
	return err
}

// ServeMetrics exposes /metrics (and /healthz) on addr, returning the
// bound address and a shutdown function — the same listener as the
// backend's psp.ServeMetrics, without the admin plane.
func (f *Frontend) ServeMetrics(addr string) (bound string, shutdown func() error, err error) {
	return metrics.Serve(addr, f.WriteMetrics, f.closed.Load, nil)
}
