package psp

import (
	"io"
	"strconv"

	"repro/internal/admission"
	"repro/internal/metrics"
	"repro/internal/reconfig"
)

// WriteMetrics renders the server's counters and per-type latency
// quantiles in the Prometheus text exposition format, so a live
// Perséphone can be scraped by standard tooling.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.StatsSnapshot()
	var p metrics.Page
	p.Counter("persephone_requests_total", "Requests admitted to typed queues.", st.Enqueued)
	p.Counter("persephone_dispatched_total", "Requests handed to workers.", st.Dispatched)
	p.Counter("persephone_dropped_total", "Requests shed by flow control.", st.Dropped)
	p.Counter("persephone_reservation_updates_total", "DARC reservation recomputations.", st.Updates)
	p.Counter("persephone_faults_injected_total", "Faults created by the chaos layer (drops, dups, stalls, slowdowns, crashes).", st.FaultsInjected)
	p.Counter("persephone_retries_total", "Client retransmissions observed at ingress.", st.RetriesSeen)
	p.Counter("persephone_worker_restarts_total", "Workers crash-respawned by fault injection.", st.WorkerRestarts)

	p.Family("persephone_latency_seconds", "summary", "Server-side sojourn quantiles per request type.")
	for _, row := range st.Summaries {
		if row.Completed == 0 {
			continue
		}
		name := metrics.SanitizeLabel(row.Name)
		p.Sample("persephone_latency_seconds", row.P50.Seconds(), "type", name, "quantile", "0.5")
		p.Sample("persephone_latency_seconds", row.P99.Seconds(), "type", name, "quantile", "0.99")
		p.Sample("persephone_latency_seconds", row.P999.Seconds(), "type", name, "quantile", "0.999")
		p.Sample("persephone_latency_seconds_count", row.Completed, "type", name)
	}
	p.Family("persephone_slowdown_p999", "gauge", "Server-side p99.9 slowdown (sojourn over service time) per request type.")
	for _, row := range st.Summaries {
		if row.Completed > 0 {
			p.Sample("persephone_slowdown_p999", row.Slowdown999, "type", metrics.SanitizeLabel(row.Name))
		}
	}

	if t := s.tcpSrv.Load(); t != nil {
		writeTCPMetrics(&p, t)
	}
	if st.Admission != nil {
		s.writeAdmissionMetrics(&p, st.Admission)
	}

	s.writeReconfigMetrics(&p)

	p.Counter("persephone_trace_spans_total", "Lifecycle spans drained from worker trace rings.", st.TraceSpans)
	p.Counter("persephone_trace_lost_total", "Lifecycle spans dropped because a trace ring was full.", st.TraceLost)

	rows := s.TraceSummaries()
	p.Family("persephone_queue_delay_ns", "summary", "Lifecycle queueing delay (ingress to worker start) per request type, in nanoseconds.")
	for _, row := range rows {
		name := metrics.SanitizeLabel(row.Name)
		p.Sample("persephone_queue_delay_ns", row.QueueP50.Nanoseconds(), "type", name, "quantile", "0.5")
		p.Sample("persephone_queue_delay_ns", row.QueueP99.Nanoseconds(), "type", name, "quantile", "0.99")
		p.Sample("persephone_queue_delay_ns", row.QueueP999.Nanoseconds(), "type", name, "quantile", "0.999")
		p.Sample("persephone_queue_delay_ns_count", row.Count, "type", name)
	}
	p.Family("persephone_service_ns", "summary", "Measured handler execution time per request type, in nanoseconds.")
	for _, row := range rows {
		name := metrics.SanitizeLabel(row.Name)
		p.Sample("persephone_service_ns", row.SvcP50.Nanoseconds(), "type", name, "quantile", "0.5")
		p.Sample("persephone_service_ns", row.SvcP99.Nanoseconds(), "type", name, "quantile", "0.99")
		p.Sample("persephone_service_ns", row.SvcP999.Nanoseconds(), "type", name, "quantile", "0.999")
		p.Sample("persephone_service_ns_count", row.Count, "type", name)
	}
	_, err := p.WriteTo(w)
	return err
}

// attachTCP binds the TCP transport to the server's metrics
// exposition (called by ListenTCPShards).
func (s *Server) attachTCP(t *TCPServer) { s.tcpSrv.Store(t) }

// writeTCPMetrics renders the persephone_tcp_* families, mirroring the
// UDP transport counter set plus connection lifecycle and the
// pipeline-depth histogram.
func writeTCPMetrics(p *metrics.Page, t *TCPServer) {
	p.Counter("persephone_tcp_rx_total", "Frames accepted into the pipeline over TCP.", t.Received())
	p.Counter("persephone_tcp_rx_drops_total", "Malformed frames dropped at ingress.", t.RxDrops())
	p.Counter("persephone_tcp_rx_sheds_total", "Frames answered StatusDropped without entering the pipeline: buffer pool exhausted or ingress ring full.", t.RxSheds())
	p.Counter("persephone_tcp_tx_inline_total", "Responses written inline because a connection TX ring was full.", t.TxRingFull())
	p.Counter("persephone_tcp_conns_accepted_total", "Connections admitted since start.", t.ConnsAccepted())
	p.Gauge("persephone_tcp_conns_open", "Currently open connections.", t.ConnsOpen())
	p.Counter("persephone_tcp_conns_evicted_total", "Connections closed by the server (idle timeout, protocol error).", t.ConnsEvicted())
	p.Counter("persephone_tcp_conns_rejected_total", "Connections shed at admission by the MaxConns cap.", t.ConnsRejected())
	p.Family("persephone_tcp_pipeline_depth", "histogram", "In-flight responses per connection, sampled as each request is accepted.")
	var cum uint64
	for i, le := range tcpDepthBuckets {
		cum += t.depthBuckets[i].Load()
		p.Sample("persephone_tcp_pipeline_depth_bucket", cum, "le", strconv.FormatUint(le, 10))
	}
	cum += t.depthBuckets[len(tcpDepthBuckets)].Load()
	p.Sample("persephone_tcp_pipeline_depth_bucket", cum, "le", "+Inf")
	p.Sample("persephone_tcp_pipeline_depth_sum", t.depthSum.Load())
	p.Sample("persephone_tcp_pipeline_depth_count", t.depthCount.Load())
}

// writeAdmissionMetrics renders the persephone_admission_* families:
// the per-type shed ledger (whose per-type identity accepted ==
// completed + shed is exact once drained), the effective budgets, and
// the overload detector's state. The final slot is the
// unknown/unclassified type.
func (s *Server) writeAdmissionMetrics(p *metrics.Page, st *admission.Stats) {
	names := append(s.rec.TypeNames(), "unknown")
	for i := range names {
		names[i] = metrics.SanitizeLabel(names[i])
	}
	p.Family("persephone_admission_accepted_total", "counter", "Requests entered into the admission ledger, per type.")
	for i, slot := range st.Slots {
		p.Sample("persephone_admission_accepted_total", slot.Accepted, "type", names[i])
	}
	p.Family("persephone_admission_completed_total", "counter", "Admitted requests completed by workers, per type.")
	for i, slot := range st.Slots {
		p.Sample("persephone_admission_completed_total", slot.Completed, "type", names[i])
	}
	p.Family("persephone_admission_shed_total", "counter", "Requests refused by admission control, per type and reason (deadline: own budget exceeded; overload: reverse-reservation trim or full queue; lost: crash/shutdown).")
	for i, slot := range st.Slots {
		p.Sample("persephone_admission_shed_total", slot.ShedDeadline, "type", names[i], "reason", "deadline")
		p.Sample("persephone_admission_shed_total", slot.ShedOverload, "type", names[i], "reason", "overload")
		p.Sample("persephone_admission_shed_total", slot.ShedLost, "type", names[i], "reason", "lost")
	}
	p.Family("persephone_admission_budget_ns", "gauge", "Effective admission budget per type (0 = no budget yet), in nanoseconds.")
	for i := range st.Slots {
		p.Sample("persephone_admission_budget_ns", s.adm.CachedBudget(i).Nanoseconds(), "type", names[i])
	}
	p.Gauge("persephone_admission_queue_delay_ewma_ns", "Smoothed dispatch queue delay driving the overload detector, in nanoseconds.", st.QueueDelayEWMA.Nanoseconds())
	overloaded := 0
	if st.Overloaded {
		overloaded = 1
	}
	p.Gauge("persephone_admission_overloaded", "Whether the dispatcher currently sheds in reverse-reservation order (1 = overloaded).", overloaded)
}

// writeReconfigMetrics renders the live-reconfiguration control
// plane's families: the pool/policy gauges every scrape should watch
// and the counters that account for what reconfigurations did.
func (s *Server) writeReconfigMetrics(p *metrics.Page) {
	p.Gauge("persephone_workers_active", "Live worker-pool size (schedulable workers).", s.activeA.Load())
	p.Gauge("persephone_reconfig_generation", "Configuration generation (bumped once per applied reconfiguration).", s.generation.Load())
	p.Counter("persephone_reconfig_applied_total", "Reconfigurations applied.", s.rcApplied.Load())
	p.Counter("persephone_reconfig_rejected_total", "Reconfigurations rejected by validation.", s.rcRejected.Load())
	p.Counter("persephone_reconfig_policy_swaps_total", "Scheduling-policy changes applied.", s.rcPolicySwaps.Load())
	p.Counter("persephone_reconfig_resizes_total", "Worker-pool resizes applied.", s.rcResizes.Load())
	p.Counter("persephone_reconfig_migrated_total", "Queued requests moved between queue families by policy swaps.", s.rcMigrated.Load())
	p.Counter("persephone_reconfig_migrated_shed_total", "Migrating requests the target queue family had no room for (answered, not lost).", s.rcMigratedShed.Load())
	p.Gauge("persephone_reconfig_last_drain_ns", "Drain wait of the most recent worker-pool shrink, in nanoseconds.", s.rcLastDrainNs.Load())
}

// ServeMetrics exposes /metrics, /healthz and the runtime control
// plane (GET /admin/config, POST /admin/reconfig) on addr, returning
// the bound address and a shutdown function.
func (s *Server) ServeMetrics(addr string) (bound string, shutdown func() error, err error) {
	return metrics.Serve(addr, s.WriteMetrics, s.stopped.Load, reconfig.AdminHandler(s))
}
