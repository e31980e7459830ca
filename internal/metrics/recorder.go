package metrics

import (
	"fmt"
	"time"
)

// SlowdownScale is the fixed-point scale used to record slowdown
// ratios in integer histograms: a slowdown of 1.0 is recorded as 1000.
const SlowdownScale = 1000

// TypeStats aggregates the measurements for one request type.
type TypeStats struct {
	Name        string
	Latency     Histogram // server sojourn time (ns)
	EndToEnd    Histogram // sojourn + configured network RTT (ns)
	Slowdown    Histogram // sojourn / pure service time, scaled by SlowdownScale
	QueueDelay  Histogram // time between arrival and first dispatch (ns)
	Completed   uint64
	Dropped     uint64
	Preemptions uint64
	ServiceSum  time.Duration // total pure service time completed
}

// Recorder collects per-type and aggregate statistics for one
// experiment run. Recording honours a warm-up cutoff: observations of
// requests that arrived before the cutoff are discarded, matching the
// paper's "discard the first 10% of samples". Only the per-type
// statistics are written per request; the aggregate is folded from them
// when read. It is not safe for concurrent use.
type Recorder struct {
	types    []*TypeStats
	all      TypeStats // All's result, folded anew on every call
	warmup   time.Duration
	rtt      time.Duration
	started  time.Duration // virtual time recording started (for throughput)
	finished time.Duration
}

// NewRecorder creates a recorder for n request types with the given
// names (names may be nil, in which case types are numbered).
func NewRecorder(n int, names []string) *Recorder {
	r := &Recorder{types: make([]*TypeStats, n)}
	for i := range r.types {
		name := fmt.Sprintf("type%d", i)
		if names != nil && i < len(names) && names[i] != "" {
			name = names[i]
		}
		r.types[i] = &TypeStats{Name: name}
	}
	return r
}

// SetWarmup discards observations whose arrival predates the cutoff.
func (r *Recorder) SetWarmup(d time.Duration) { r.warmup = d }

// Warmup reports the configured warm-up cutoff.
func (r *Recorder) Warmup() time.Duration { return r.warmup }

// SetRTT configures the fixed network round-trip added to the
// end-to-end view (the paper's testbed measured 10µs).
func (r *Recorder) SetRTT(d time.Duration) { r.rtt = d }

// SetSpan records the measured interval for throughput computation:
// from the warm-up cutoff to the experiment horizon.
func (r *Recorder) SetSpan(start, end time.Duration) {
	r.started, r.finished = start, end
}

// NumTypes reports the number of request types being tracked.
func (r *Recorder) NumTypes() int { return len(r.types) }

// Complete records a finished request of the given type.
// arrival/completion are virtual instants; service is the request's
// pure processing demand; preemptions counts scheduler interrupts it
// suffered.
func (r *Recorder) Complete(typ int, arrival, completion time.Duration, service time.Duration, firstDispatch time.Duration, preemptions int) {
	if arrival < r.warmup {
		return
	}
	sojourn := completion - arrival
	queue := firstDispatch - arrival
	var slowdown int64
	if service > 0 {
		slowdown = int64(float64(sojourn) / float64(service) * SlowdownScale)
	} else {
		slowdown = SlowdownScale
	}
	ts := r.typeStats(typ)
	ts.Latency.RecordDuration(sojourn)
	ts.EndToEnd.RecordDuration(sojourn + r.rtt)
	ts.Slowdown.Record(slowdown)
	ts.QueueDelay.RecordDuration(queue)
	ts.Completed++
	ts.Preemptions += uint64(preemptions)
	ts.ServiceSum += service
}

// Drop records a shed request of the given type.
func (r *Recorder) Drop(typ int, arrival time.Duration) {
	if arrival < r.warmup {
		return
	}
	r.typeStats(typ).Dropped++
}

func (r *Recorder) typeStats(typ int) *TypeStats {
	if typ < 0 || typ >= len(r.types) {
		// Unknown/unclassified requests are folded into a synthetic
		// last bucket rather than dropped silently.
		if len(r.types) == 0 {
			r.types = append(r.types, &TypeStats{Name: "unknown"})
		}
		return r.types[len(r.types)-1]
	}
	return r.types[typ]
}

// Type returns the statistics for one request type.
func (r *Recorder) Type(i int) *TypeStats { return r.types[i] }

// All returns the aggregate statistics across every type, folded from
// the per-type statistics on each call; the next call overwrites them.
// The fold equals recording every request twice: the buckets are the
// same, and the histograms' sums add integers, exactly while they stay
// below 2^53 (about 104 days of summed nanoseconds).
func (r *Recorder) All() *TypeStats {
	r.all = TypeStats{Name: "all"}
	a := &r.all
	for _, ts := range r.types {
		a.Latency.Merge(&ts.Latency)
		a.EndToEnd.Merge(&ts.EndToEnd)
		a.Slowdown.Merge(&ts.Slowdown)
		a.QueueDelay.Merge(&ts.QueueDelay)
		a.Completed += ts.Completed
		a.Dropped += ts.Dropped
		a.Preemptions += ts.Preemptions
		a.ServiceSum += ts.ServiceSum
	}
	return a
}

// Throughput reports completed requests per second over the measured
// span, or 0 if the span is degenerate.
func (r *Recorder) Throughput() float64 {
	span := r.finished - r.started
	if span <= 0 {
		return 0
	}
	return float64(r.All().Completed) / span.Seconds()
}

// DropRate reports the fraction of post-warm-up requests that were
// shed.
func (r *Recorder) DropRate() float64 {
	all := r.All()
	total := all.Completed + all.Dropped
	if total == 0 {
		return 0
	}
	return float64(all.Dropped) / float64(total)
}

// SlowdownAt converts a scaled slowdown histogram quantile into a
// ratio.
func SlowdownAt(ts *TypeStats, q float64) float64 {
	return float64(ts.Slowdown.Quantile(q)) / SlowdownScale
}

// Summary is a flattened result row for reports and CSV output.
type Summary struct {
	Name        string
	Completed   uint64
	Dropped     uint64
	MeanLatency time.Duration
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
	SlowdownP99 float64
	Slowdown999 float64
	Preemptions uint64
}

// Summarize produces a per-type summary table, ending with the
// aggregate row.
func (r *Recorder) Summarize() []Summary {
	rows := make([]Summary, 0, len(r.types)+1)
	for _, ts := range r.types {
		rows = append(rows, summarize(ts))
	}
	rows = append(rows, summarize(r.All()))
	return rows
}

func summarize(ts *TypeStats) Summary {
	return Summary{
		Name:        ts.Name,
		Completed:   ts.Completed,
		Dropped:     ts.Dropped,
		MeanLatency: time.Duration(ts.Latency.Mean()),
		P50:         ts.Latency.QuantileDuration(0.50),
		P99:         ts.Latency.QuantileDuration(0.99),
		P999:        ts.Latency.QuantileDuration(0.999),
		SlowdownP99: SlowdownAt(ts, 0.99),
		Slowdown999: SlowdownAt(ts, 0.999),
		Preemptions: ts.Preemptions,
	}
}

// TypeNames returns the tracked type names in index order.
func (r *Recorder) TypeNames() []string {
	names := make([]string, len(r.types))
	for i, ts := range r.types {
		names[i] = ts.Name
	}
	return names
}
