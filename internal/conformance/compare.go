package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/darc"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Band is a two-sided tolerance around a reference value: got agrees
// with ref when |got-ref| <= Rel·ref + Abs. Rel absorbs the
// proportional noise of finite-sample quantiles; Abs floors the band
// so near-zero references (an idle DARC short queue) don't demand
// impossible precision from a wall-clock measurement.
type Band struct {
	Rel float64
	Abs time.Duration
}

// Allows reports whether got sits inside the band around ref.
func (b Band) Allows(ref, got time.Duration) bool {
	diff := got - ref
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= b.Rel*float64(ref)+float64(b.Abs)
}

// QuantileCheck is one statistical comparison: the quantile, its
// tolerance band, and the minimum per-side sample count below which
// the check is skipped (quantile estimates from thin samples are
// noise, not evidence).
type QuantileCheck struct {
	Q          float64
	Band       Band
	MinSamples int
}

// CompareOptions tunes the comparator.
type CompareOptions struct {
	// Quantiles are the statistical checks per type (default: p50,
	// p90, p99 with policy-appropriate bands).
	Quantiles []QuantileCheck
	// Epsilon is the clock-skew allowance at reservation-update
	// boundaries: a span dispatched within Epsilon of an update is
	// legal under either the old or the new reservation.
	Epsilon time.Duration
	// InversionAllowance is how many >InversionGap FCFS dispatch-order
	// inversions a clean c-FCFS run may show (clock noise headroom).
	InversionAllowance int
	// InversionGap is the minimum ingress regression that counts as an
	// inversion (filters batch-amortized arrival-stamp ties).
	InversionGap time.Duration
	// TimeoutBudget bounds replay timeouts before the run diverges
	// (loopback UDP is not formally lossless; a handful of losses must
	// not fail conformance, a pattern of them must).
	TimeoutBudget uint64
}

// DefaultOptions returns the comparator configuration for a declared
// policy and trace length.
func DefaultOptions(p sched.Spec, records int) CompareOptions {
	// The Abs floors absorb the live side's wall-clock noise (the
	// timer tick puts 0–2ms of jitter on every sleep and arrival);
	// Rel covers finite-sample quantile dispersion at ρ≈0.55. The p50
	// floor is 4ms, not the tick's 2ms: when the sim's median delay is
	// an exact 0 the relative term contributes nothing, and the live
	// side still pays dispatch overhead plus residual sleep overshoot
	// on top of the tick (measured ~3.4ms worst case across the
	// mutation matrix's clean counterparts).
	qs := []QuantileCheck{
		{Q: 0.50, Band: Band{Rel: 0.35, Abs: 4 * time.Millisecond}, MinSamples: 40},
		{Q: 0.90, Band: Band{Rel: 0.50, Abs: 5 * time.Millisecond}, MinSamples: 80},
		{Q: 0.99, Band: Band{Rel: 0.60, Abs: 10 * time.Millisecond}, MinSamples: 250},
	}
	if p.Kind == sched.KindDFCFS {
		// d-FCFS steering draws from different RNG streams on the two
		// sides; only distribution shape is comparable, and its tail
		// is dominated by unlucky steering behind a long request.
		qs = []QuantileCheck{
			{Q: 0.50, Band: Band{Rel: 1.0, Abs: 8 * time.Millisecond}, MinSamples: 40},
			{Q: 0.90, Band: Band{Rel: 1.0, Abs: 15 * time.Millisecond}, MinSamples: 80},
			{Q: 0.99, Band: Band{Rel: 1.5, Abs: 30 * time.Millisecond}, MinSamples: 250},
		}
	}
	budget := uint64(records / 500)
	if budget < 2 {
		budget = 2
	}
	return CompareOptions{
		Quantiles:          qs,
		Epsilon:            10 * time.Millisecond,
		InversionAllowance: 2,
		InversionGap:       time.Millisecond,
		TimeoutBudget:      budget,
	}
}

// Divergence is one comparator finding.
type Divergence struct {
	Kind   string
	Detail string
}

func (d Divergence) String() string { return d.Kind + ": " + d.Detail }

// AgreementRow is one statistical comparison result, ready for an
// EXPERIMENTS.md table.
type AgreementRow struct {
	Type     int
	TypeName string
	Quantile float64
	Sim      time.Duration
	Live     time.Duration
	SimN     int
	LiveN    int
	Checked  bool
	Within   bool
}

// Report is the outcome of one differential comparison.
type Report struct {
	Trace    string
	Policy   string
	Mutation string // empty for clean runs

	Divergences []Divergence
	Rows        []AgreementRow

	SimArrived  uint64
	SimComplete uint64
	LiveSent    uint64
	LiveRecv    uint64
	LiveTimeout uint64
	LiveDropped uint64
	ReplaySpans int
	ResUpdates  int
	Inversions  int
}

// Agree reports whether the two implementations conformed.
func (r *Report) Agree() bool { return len(r.Divergences) == 0 }

// StatisticalOnly reports whether every divergence is a quantile-band
// miss with no structural finding. On shared or virtualised hosts a
// multi-hundred-millisecond freeze (hypervisor steal, co-scheduled
// suites) inflates the live side's queue delays wholesale while every
// structural invariant still holds — the signature of starvation, not
// of a scheduling difference. Callers may retry such a run once;
// structural divergences must never be retried away.
func (r *Report) StatisticalOnly() bool {
	if len(r.Divergences) == 0 {
		return false
	}
	for _, d := range r.Divergences {
		if d.Kind != "quantile-band" {
			return false
		}
	}
	return true
}

func (r *Report) diverge(kind, format string, args ...interface{}) {
	r.Divergences = append(r.Divergences, Divergence{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Compare checks one sim run against one live run of the same trace
// under the same declared policy.
func Compare(spec TraceSpec, tr *trace.Trace, sim *SimRun, live *LiveRun, opt CompareOptions) *Report {
	rep := &Report{
		Trace:       spec.Name,
		Policy:      live.Policy.Kind.String(),
		SimArrived:  sim.Arrived,
		SimComplete: sim.Complete,
		LiveSent:    live.Result.Sent,
		LiveRecv:    live.Result.Received,
		LiveTimeout: live.Result.TimedOut,
		LiveDropped: live.Result.Dropped,
		ReplaySpans: len(live.Spans),
		ResUpdates:  len(live.Reservations),
	}
	records := uint64(tr.Len())

	// --- structural: request conservation, both sides, exact ---
	if sim.Arrived != records {
		rep.diverge("sim-conservation", "sim arrived %d of %d trace records", sim.Arrived, records)
	}
	if sim.Complete+sim.Dropped != sim.Arrived || sim.Dropped != 0 {
		rep.diverge("sim-conservation", "sim completed %d + dropped %d != arrived %d (or dropped requests)",
			sim.Complete, sim.Dropped, sim.Arrived)
	}
	if live.Result.Sent != records || live.Result.Errors != 0 {
		rep.diverge("live-conservation", "replay sent %d of %d records (%d send errors)",
			live.Result.Sent, records, live.Result.Errors)
	}
	if live.Result.Unaccounted() != 0 {
		rep.diverge("live-conservation", "replay left %d requests unaccounted", live.Result.Unaccounted())
	}
	if live.AdmissionBudget == 0 && live.Result.Dropped != 0 {
		// With no admission control declared the live server has no
		// licence to refuse anything the lossless sim completed.
		rep.diverge("live-shed", "live server shed %d requests a lossless sim completed", live.Result.Dropped)
	}
	if live.Result.TimedOut > opt.TimeoutBudget {
		rep.diverge("live-loss", "replay timed out %d requests (budget %d)", live.Result.TimedOut, opt.TimeoutBudget)
	}
	if live.TraceLost != 0 {
		rep.diverge("trace-loss", "live server lost %d lifecycle spans to full rings", live.TraceLost)
	}

	// --- structural: per-type dispatch counts, exact modulo timeouts ---
	traceCounts := make([]uint64, live.NumTypes)
	for _, r := range tr.Records {
		if r.Type >= 0 && r.Type < live.NumTypes {
			traceCounts[r.Type]++
		}
	}
	spanCounts := make([]uint64, live.NumTypes)
	var unknownSpans uint64
	for _, sp := range live.Spans {
		if sp.Type >= 0 && sp.Type < live.NumTypes {
			spanCounts[sp.Type]++
		} else {
			unknownSpans++
		}
	}
	if unknownSpans > 0 {
		rep.diverge("type-counts", "%d replay spans carried an unknown type", unknownSpans)
	}
	for t := 0; t < live.NumTypes; t++ {
		// A timed-out request is usually still served (the response
		// was lost, not the request), so the span window is
		// [trace - timeouts - drops, trace].
		slack := live.Result.TimedOutByType[t] + live.Result.DroppedByType[t]
		lo := traceCounts[t] - min(traceCounts[t], slack)
		if spanCounts[t] < lo || spanCounts[t] > traceCounts[t] {
			rep.diverge("type-counts", "type %d served %d times live, trace has %d (timeout slack %d)",
				t, spanCounts[t], traceCounts[t], slack)
		}
		if sim.PerType[t] != traceCounts[t] {
			rep.diverge("type-counts", "type %d completed %d times in sim, trace has %d",
				t, sim.PerType[t], traceCounts[t])
		}
	}

	// --- structural: admission declaration honoured ---
	// The sim is the lossless reference: every post-warmup queueing
	// delay it records above the declared budget is a request a
	// faithful admission controller would have refused (or at least
	// been pushed into overload trimming by). A server that declares a
	// budget, sees ample over-budget pressure, and sheds nothing is
	// running with admission disabled. The evidence floor keeps border
	// traffic (a handful of over-budget stragglers the live side may
	// legitimately have dispatched in time) from tripping the check.
	if live.AdmissionBudget > 0 {
		const admissionMinEvidence = 20
		over := 0
		for _, delays := range sim.QueueDelays {
			for _, d := range delays {
				if d > live.AdmissionBudget {
					over++
				}
			}
		}
		if over >= admissionMinEvidence && live.AdmissionShed == 0 && live.Result.Dropped == 0 {
			rep.diverge("admission", "declared budget %v with %d sim queue delays over it, yet the live server shed nothing",
				live.AdmissionBudget, over)
		}
	}

	// --- structural: policy invariants ---
	switch live.Policy.Kind {
	case sched.KindDARC:
		if !live.ReservationAtReplay {
			rep.diverge("reservation", "declared DARC but no reservation installed before the replay")
		}
		if len(live.Reservations) == 0 {
			rep.diverge("reservation", "declared DARC but the controller never published an update")
		}
		violations := 0
		var first trace.Span
		for _, sp := range live.Spans {
			if !reservationLegal(live.Reservations, sp, opt.Epsilon) {
				if violations == 0 {
					first = sp
				}
				violations++
			}
		}
		if violations > 0 {
			rep.diverge("reservation", "%d spans dispatched outside their reservation (first: id=%d type=%d worker=%d at %v)",
				violations, first.ID, first.Type, first.Worker, first.Dispatched)
		}
	case sched.KindDARCStatic:
		violations := 0
		var first trace.Span
		for _, sp := range live.Spans {
			if sp.Type != live.ShortType && sp.Worker < live.Policy.StaticReserved {
				if violations == 0 {
					first = sp
				}
				violations++
			}
		}
		if violations > 0 {
			rep.diverge("reservation", "%d non-short spans ran on statically reserved workers (first: id=%d type=%d worker=%d)",
				violations, first.ID, first.Type, first.Worker)
		}
	case sched.KindCFCFS:
		rep.Inversions = dispatchInversions(live.Spans, opt.InversionGap)
		if rep.Inversions > opt.InversionAllowance {
			rep.diverge("fcfs-order", "%d dispatch-order inversions beyond %v under declared c-FCFS (allowance %d)",
				rep.Inversions, opt.InversionGap, opt.InversionAllowance)
		}
	}

	// --- statistical: per-type queue-delay quantile bands ---
	cut := spec.warmupCut()
	liveDelays := liveQueueDelays(live.Spans, live.NumTypes, cut)
	for t := 0; t < live.NumTypes; t++ {
		name := fmt.Sprintf("type%d", t)
		if t < len(spec.Mix.Types) {
			name = spec.Mix.Types[t].Name
		}
		var simD []time.Duration
		if t < len(sim.QueueDelays) {
			simD = sim.QueueDelays[t]
		}
		for _, qc := range opt.Quantiles {
			row := AgreementRow{
				Type: t, TypeName: name, Quantile: qc.Q,
				SimN: len(simD), LiveN: len(liveDelays[t]),
			}
			if row.SimN >= qc.MinSamples && row.LiveN >= qc.MinSamples {
				row.Checked = true
				row.Sim = quantileDur(simD, qc.Q)
				row.Live = quantileDur(liveDelays[t], qc.Q)
				row.Within = qc.Band.Allows(row.Sim, row.Live)
				if !row.Within {
					rep.diverge("quantile-band", "type %s p%g queue delay: sim %v vs live %v outside band (rel %.2f, abs %v)",
						name, qc.Q*100, row.Sim, row.Live, qc.Band.Rel, qc.Band.Abs)
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// liveQueueDelays extracts post-warmup per-type queueing delays from
// the replay spans. Span ingress offsets are normalized to the first
// replay arrival so the warmup fraction lines up with the sim's.
func liveQueueDelays(spans []trace.Span, numTypes int, cut time.Duration) [][]time.Duration {
	out := make([][]time.Duration, numTypes)
	if len(spans) == 0 {
		return out
	}
	minIngress := spans[0].Ingress
	for _, sp := range spans {
		if sp.Ingress < minIngress {
			minIngress = sp.Ingress
		}
	}
	for _, sp := range spans {
		if sp.Type < 0 || sp.Type >= numTypes {
			continue
		}
		if sp.Ingress-minIngress < cut {
			continue
		}
		out[sp.Type] = append(out[sp.Type], sp.QueueDelay())
	}
	return out
}

// dispatchInversions counts pairs where a request was dispatched
// before an earlier-arrived request by more than gap — zero (modulo
// clock noise) under a faithful c-FCFS, rampant under per-worker
// queues.
func dispatchInversions(spans []trace.Span, gap time.Duration) int {
	if len(spans) == 0 {
		return 0
	}
	ordered := append([]trace.Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Dispatched < ordered[j].Dispatched })
	inversions := 0
	maxIngress := ordered[0].Ingress
	for _, sp := range ordered[1:] {
		if sp.Ingress+gap < maxIngress {
			inversions++
			continue
		}
		if sp.Ingress > maxIngress {
			maxIngress = sp.Ingress
		}
	}
	return inversions
}

// reservationLegal checks one span against the reservation timeline:
// the span's worker must be reserved for or stealable by its type's
// group under the reservation active at dispatch time (spans within
// Epsilon of an update boundary may match either neighbour — the
// timeline and span clocks are stamped independently).
func reservationLegal(timeline []ResUpdate, sp trace.Span, eps time.Duration) bool {
	if len(timeline) == 0 {
		return true // startup c-FCFS: any worker is legal
	}
	active := -1
	for i, u := range timeline {
		if u.At <= sp.Dispatched {
			active = i
		} else {
			break
		}
	}
	if active == -1 {
		// Dispatched before the first update: startup c-FCFS, unless
		// the update landed within the skew window and should apply.
		return true
	}
	if reservationAllows(timeline[active].Res, sp) {
		return true
	}
	if active > 0 && sp.Dispatched-timeline[active].At <= eps &&
		reservationAllows(timeline[active-1].Res, sp) {
		return true
	}
	if active+1 < len(timeline) && timeline[active+1].At-sp.Dispatched <= eps &&
		reservationAllows(timeline[active+1].Res, sp) {
		return true
	}
	return false
}

// reservationAllows mirrors the live dispatcher's eligibility rule:
// a type may run on its group's reserved workers or the ones it may
// steal; an empty union (the spillway-less unknown case) falls back
// to any worker.
func reservationAllows(res *darc.Reservation, sp trace.Span) bool {
	if res == nil {
		return true
	}
	reserved := res.ReservedFor(sp.Type)
	stealable := res.StealableFor(sp.Type)
	if len(reserved)+len(stealable) == 0 {
		return true
	}
	for _, w := range reserved {
		if w == sp.Worker {
			return true
		}
	}
	for _, w := range stealable {
		if w == sp.Worker {
			return true
		}
	}
	return false
}

// quantileDur is the nearest-rank quantile of a sample set.
func quantileDur(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// String renders the report for logs and `psp conform`.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "AGREE"
	if !r.Agree() {
		verdict = "DIVERGE"
	}
	label := r.Policy
	if r.Mutation != "" {
		label += " (mutated: " + r.Mutation + ")"
	}
	fmt.Fprintf(&b, "%s trace=%s policy=%s sim=%d/%d live=%d/%d/%d spans=%d updates=%d\n",
		verdict, r.Trace, label, r.SimComplete, r.SimArrived,
		r.LiveRecv, r.LiveTimeout, r.LiveDropped, r.ReplaySpans, r.ResUpdates)
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  ! %s\n", d)
	}
	return b.String()
}

// MarkdownTable renders the agreement rows as an EXPERIMENTS.md-ready
// table.
func (r *Report) MarkdownTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| type | quantile | sim queue delay | live queue delay | verdict |\n")
	fmt.Fprintf(&b, "|------|----------|-----------------|------------------|---------|\n")
	for _, row := range r.Rows {
		verdict := "within band"
		switch {
		case !row.Checked:
			verdict = fmt.Sprintf("skipped (n=%d/%d)", row.SimN, row.LiveN)
			fmt.Fprintf(&b, "| %s | p%g | — | — | %s |\n", row.TypeName, row.Quantile*100, verdict)
			continue
		case !row.Within:
			verdict = "**outside band**"
		}
		fmt.Fprintf(&b, "| %s | p%g | %v | %v | %s |\n",
			row.TypeName, row.Quantile*100, row.Sim.Round(time.Microsecond), row.Live.Round(time.Microsecond), verdict)
	}
	return b.String()
}
