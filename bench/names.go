package main

// The catalogue of what the benchmark emits. BENCHMARK.json at the
// root of the repository lists exactly these names (bench_test.go
// checks the two against each other), so a metric is added here and
// there in one change.

// Workload names, in the order the suite runs them.
const (
	wlSim       = "sim-paper-mix"
	wlHeavyTail = "udp-heavytail-open"
	wlUDPEcho   = "udp-echo-closed"
	wlTCPEcho   = "tcp-echo-closed"
	wlFrontend  = "frontend-fanout-closed"
)

var workloadNames = []string{wlSim, wlHeavyTail, wlUDPEcho, wlTCPEcho, wlFrontend}

// metricDef names one emitted metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before the
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is reported by every workload with -trace 0. README.md
// says what each name carries on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"short_p50_us", "us", "lower", 0.25},
	{"short_p99_us", "us", "lower", 0.25},
	{"long_p99_us", "us", "lower", 0.25},
}

// perLayer is reported by every workload with -trace 1; a metric that
// does not exist on a workload reads 0 there.
var perLayer = []metricDef{
	// Client ledger and generator validity.
	{"client.fail_share", "ratio", "lower", 0},
	{"client.stalled_windows", "count", "lower", 0},
	{"client.late_p99_us", "us", "lower", 0},
	{"client.late_max_us", "us", "lower", 0},
	{"client.short_p99_whole_us", "us", "lower", 0},
	{"client.short_p999_whole_us", "us", "lower", 0},
	// Response timing trailer against the client's clock.
	{"net.residual_p50_us", "us", "lower", 0},
	{"net.residual_p99_us", "us", "lower", 0},
	{"psp.queue_delay_short_p50_us", "us", "lower", 0},
	{"psp.queue_delay_short_p99_us", "us", "lower", 0},
	{"psp.queue_delay_long_p99_us", "us", "lower", 0},
	{"psp.service_short_p50_us", "us", "lower", 0},
	// Public counters of the servers under test.
	{"psp.enqueued", "count", "higher", 0},
	{"psp.dispatched", "count", "higher", 0},
	{"psp.dropped", "count", "lower", 0},
	{"psp.reservation_updates", "count", "lower", 0},
	{"psp.trace_lost", "count", "lower", 0},
	{"darc.reserved_short_workers", "count", "higher", 0},
	{"net.rx_drops", "count", "lower", 0},
	{"net.rx_sheds", "count", "lower", 0},
	{"net.tx_ring_full", "count", "lower", 0},
	{"tcp.conns_accepted", "count", "lower", 0},
	{"frontend.query_p50_us", "us", "lower", 0},
	{"frontend.query_p99_us", "us", "lower", 0},
	{"frontend.sub_issued", "count", "higher", 0},
	{"frontend.sub_replied", "count", "higher", 0},
	{"frontend.sub_timed_out", "count", "lower", 0},
	{"frontend.hedges", "count", "lower", 0},
	{"frontend.shed", "count", "lower", 0},
	// Go runtime over the measured interval.
	{"runtime.sched_latency_p99_us", "us", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.mallocs_per_req", "count", "lower", 0},
	{"runtime.cpu_us_per_req", "us", "lower", 0},
	// Server lifecycle stages from the traced pass.
	{"psp.ingress_to_classified_p50_ns", "ns", "lower", 0},
	{"psp.classified_to_enqueued_p50_ns", "ns", "lower", 0},
	{"psp.enqueued_to_dispatched_p50_ns", "ns", "lower", 0},
	{"psp.enqueued_to_dispatched_p99_ns", "ns", "lower", 0},
	{"psp.dispatched_to_started_p50_ns", "ns", "lower", 0},
	{"psp.dispatched_to_started_p99_ns", "ns", "lower", 0},
	{"psp.started_to_finished_p50_ns", "ns", "lower", 0},
	{"psp.finished_to_replied_p50_ns", "ns", "lower", 0},
	{"psp.sojourn_p50_ns", "ns", "lower", 0},
	{"trace.goodput_ratio", "ratio", "higher", 0},
	{"policy.cfcfs_over_darc_short_p99_ratio", "ratio", "higher", 0},
	// Public functions timed from outside.
	{"psp.call_ns", "ns", "lower", 0},
	{"psp.call_allocs", "count", "lower", 0},
	{"classify.field_ns", "ns", "lower", 0},
	{"classify.resp_ns", "ns", "lower", 0},
	{"proto.append_message_ns", "ns", "lower", 0},
	{"proto.decode_header_ns", "ns", "lower", 0},
	{"proto.append_response_ns", "ns", "lower", 0},
	{"spsc.ring_putget_ns", "ns", "lower", 0},
	{"spsc.mpsc_putget_ns", "ns", "lower", 0},
	{"spsc.pool_getrelease_ns", "ns", "lower", 0},
	{"darc.observe_ns", "ns", "lower", 0},
	{"darc.maybe_update_ns", "ns", "lower", 0},
	{"darc.compute_reservation_ns", "ns", "lower", 0},
	{"darc.compute_reservation_allocs", "count", "lower", 0},
	{"admission.exceeds_budget_ns", "ns", "lower", 0},
	{"metrics.histogram_record_ns", "ns", "lower", 0},
	{"eventq.pushpop_ns", "ns", "lower", 0},
	{"rng.exp_ns", "ns", "lower", 0},
	// Simulator, per point of the batch.
	{"sim.req_per_s.eb-darc", "1/s", "higher", 0},
	{"sim.req_per_s.eb-cfcfs", "1/s", "higher", 0},
	{"sim.req_per_s.tpcc-darc", "1/s", "higher", 0},
	{"sim.req_per_s.hb-shinjuku-mq", "1/s", "higher", 0},
	{"sim.req_per_s.rocksdb-darc", "1/s", "higher", 0},
	{"sim.mallocs_per_req", "count", "lower", 0},
}

// metricSet is what one run measured, by metric name.
type metricSet map[string]float64
