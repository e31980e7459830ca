// Package admission implements the per-type, deadline-aware overload
// controller the dispatcher threads through both datapaths. Every
// request type carries an admission budget — a bound on how long a
// request of that type may wait in queue before the time spent
// queueing has already consumed its latency SLO. Requests whose
// accumulated queue delay exceeds their budget are shed at enqueue
// and again at dispatch (the delay keeps accruing while queued), and
// when the dispatcher's queue-delay EWMA signals sustained overload
// the typed queues are trimmed in reverse-reservation order:
// unknown/long types first, short-type reservations last, so the
// paper's short-request tail guarantee degrades gracefully instead of
// collapsing when offered load exceeds capacity.
//
// The controller is deliberately passive: it owns no goroutines and
// takes no locks. The dispatcher calls it single-threaded from the
// scheduling loop; the per-slot counters and the EWMA are atomics
// only so Snapshot and the metrics exporter can read them from other
// goroutines.
package admission

import (
	"math"
	"sync/atomic"
	"time"
)

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultAutoMult scales a type's profiled mean service time into
	// an auto-derived budget: a request that has already queued for
	// 20x its own service time has blown any plausible tail SLO.
	DefaultAutoMult = 20.0
	// DefaultMinBudget floors auto-derived budgets so microsecond
	// services don't produce budgets below scheduler-tick noise.
	DefaultMinBudget = time.Millisecond
	// DefaultEWMAAlpha is the queue-delay EWMA smoothing weight.
	DefaultEWMAAlpha = 0.05
	// DefaultRetryAfterMin / Max clamp the retry-after hint sent on
	// NACKs so clients neither hammer (min) nor stall (max).
	DefaultRetryAfterMin = time.Millisecond
	DefaultRetryAfterMax = 100 * time.Millisecond
)

// Config declares the admission policy for one server.
type Config struct {
	// Budgets holds per-type admission budgets, indexed by type ID. A
	// zero (or missing) entry means the budget is auto-derived from
	// the DARC profiler's service-time estimate for that type:
	// AutoMult x profiled mean, floored at MinBudget. Until the
	// profiler has an estimate the auto budget is zero and the type
	// is never deadline-shed, so cold-start traffic is not punished.
	Budgets []time.Duration
	// UnknownBudget bounds queue delay for unclassified requests. If
	// zero it auto-derives to the largest typed budget (the spillway
	// is at least as tolerant as the slowest known type).
	UnknownBudget time.Duration
	// AutoMult overrides DefaultAutoMult when finite and > 0.
	AutoMult float64
	// MinBudget overrides DefaultMinBudget when > 0.
	MinBudget time.Duration
	// OverloadDelay is the queue-delay EWMA level above which the
	// dispatcher declares sustained overload and starts trimming in
	// reverse-reservation order. If zero it auto-derives to half the
	// smallest effective budget: overload shedding kicks in before
	// deadline shedding becomes the norm.
	OverloadDelay time.Duration
	// EWMAAlpha overrides DefaultEWMAAlpha when > 0.
	EWMAAlpha float64
	// RetryAfterMin / RetryAfterMax clamp the NACK retry-after hint;
	// zero values take the defaults.
	RetryAfterMin time.Duration
	RetryAfterMax time.Duration
}

// ShedReason discriminates why a request was refused.
type ShedReason uint8

const (
	// ShedDeadline: the request's own queue delay exceeded its budget.
	ShedDeadline ShedReason = iota
	// ShedOverload: trimmed by the reverse-reservation overload pass
	// (or refused because its queue was full while overloaded).
	ShedOverload
	// ShedLost: an admitted request that never completed — worker
	// crash or shutdown drain. Kept separate so the conservation
	// identity accepted == completed + deadline + overload + lost
	// stays exact even under chaos.
	ShedLost
)

// slotStats holds one type's admission counters. Padded use is not
// needed: these are bumped only from the dispatcher goroutine.
type slotStats struct {
	accepted     atomic.Uint64
	completed    atomic.Uint64
	shedDeadline atomic.Uint64
	shedOverload atomic.Uint64
	shedLost     atomic.Uint64
}

// Controller is the runtime half of Config, bound to one server. The
// final slot (index numTypes) accounts the unknown/unclassified type.
type Controller struct {
	cfg      Config
	numTypes int
	meanOf   func(int) time.Duration // profiled mean service time, 0 if unprofiled

	ewmaNs   atomic.Int64 // queue-delay EWMA, nanoseconds
	slots    []slotStats
	alpha    float64
	autoMult float64
	minB     time.Duration
	raMin    time.Duration
	raMax    time.Duration

	// Cross-goroutine mirrors: Budget/overloadDelay read the profiler
	// through meanOf, which is only safe on the dispatcher goroutine.
	// The dispatcher refreshes these atomics as it computes, so
	// Snapshot and the metrics exporter never touch the profiler.
	budgetNs      []atomic.Int64 // per slot, last = unknown
	threshNs      atomic.Int64   // overload threshold
	threshRefresh int            // dispatcher-only countdown

	// explicitNs holds the operator-declared budgets (0 = auto),
	// per slot with the unknown budget last. Atomic, not plain Config
	// fields, because live reconfiguration replaces budgets while the
	// metrics exporter reads CachedBudget from another goroutine.
	explicitNs []atomic.Int64
}

// New builds a controller for numTypes request types. meanOf reports
// the profiler's current mean service estimate for a type (zero when
// unprofiled); it backs auto-derived budgets and backlog caps.
func New(cfg Config, numTypes int, meanOf func(int) time.Duration) *Controller {
	c := &Controller{
		numTypes: numTypes,
		meanOf:   meanOf,
		slots:    make([]slotStats, numTypes+1),
	}
	c.budgetNs = make([]atomic.Int64, numTypes+1)
	c.explicitNs = make([]atomic.Int64, numTypes+1)
	c.applyConfig(cfg)
	// Seed the cross-goroutine threshold before the dispatcher runs
	// (construction happens before any concurrent Observe).
	c.threshNs.Store(int64(c.overloadDelay()))
	return c
}

// applyConfig installs cfg's derived policy knobs and the explicit
// budget mirrors. Called from New and (dispatcher-only) from Update.
func (c *Controller) applyConfig(cfg Config) {
	c.cfg = cfg
	c.alpha = cfg.EWMAAlpha
	c.autoMult = cfg.AutoMult
	c.minB = cfg.MinBudget
	c.raMin = cfg.RetryAfterMin
	c.raMax = cfg.RetryAfterMax
	if c.alpha <= 0 || c.alpha > 1 {
		c.alpha = DefaultEWMAAlpha
	}
	// NaN and Inf would turn every auto budget into the minimum int64.
	if !(c.autoMult > 0) || math.IsInf(c.autoMult, 0) {
		c.autoMult = DefaultAutoMult
	}
	if c.minB <= 0 {
		c.minB = DefaultMinBudget
	}
	if c.raMin <= 0 {
		c.raMin = DefaultRetryAfterMin
	}
	if c.raMax <= 0 {
		c.raMax = DefaultRetryAfterMax
	}
	if c.raMax < c.raMin {
		c.raMax = c.raMin
	}
	for t := 0; t < c.numTypes; t++ {
		var b time.Duration
		if t < len(cfg.Budgets) && cfg.Budgets[t] > 0 {
			b = cfg.Budgets[t]
		}
		c.explicitNs[t].Store(int64(b))
	}
	var ub time.Duration
	if cfg.UnknownBudget > 0 {
		ub = cfg.UnknownBudget
	}
	c.explicitNs[c.numTypes].Store(int64(ub))
}

// Update replaces the admission policy at runtime. Dispatcher-only,
// like every mutating method: the live reconfiguration path applies it
// from the scheduling loop between requests, so budget checks never
// observe a half-installed policy. The ledger (accepted/completed/
// shed counters) is preserved — conservation identities span the
// update.
func (c *Controller) Update(cfg Config) {
	c.applyConfig(cfg)
	c.threshRefresh = 0 // next ObserveQueueDelay refreshes the mirror
	c.threshNs.Store(int64(c.overloadDelay()))
}

// Config returns the controller's current declared policy
// (dispatcher-only: Update replaces it concurrently otherwise).
func (c *Controller) Config() Config { return c.cfg }

// OverloadThreshold reports the current sustained-overload trim
// threshold from its atomic mirror; safe from any goroutine.
func (c *Controller) OverloadThreshold() time.Duration {
	return time.Duration(c.threshNs.Load())
}

// NumTypes reports the typed slot count (the unknown slot is extra).
func (c *Controller) NumTypes() int { return c.numTypes }

// slot maps a type ID (or a negative unknown marker) to its counter
// slot.
func (c *Controller) slot(typ int) int {
	if typ < 0 || typ >= c.numTypes {
		return c.numTypes
	}
	return typ
}

// Budget reports the admission budget for typ: the explicit Config
// entry if set, else AutoMult x the profiled mean floored at
// MinBudget. Zero means "no budget yet" — the type is not shed on
// deadline until the profiler has seen it, so the c-FCFS startup
// window and cold types are never punished for lacking a profile.
// Dispatcher-only (it reads the profiler); other goroutines use
// CachedBudget.
func (c *Controller) Budget(typ int) time.Duration {
	if typ < 0 || typ >= c.numTypes {
		b := c.unknownBudget()
		c.budgetNs[c.numTypes].Store(int64(b))
		return b
	}
	if b := time.Duration(c.explicitNs[typ].Load()); b > 0 {
		return b
	}
	mean := c.meanOf(typ)
	if mean <= 0 {
		return 0
	}
	b := time.Duration(float64(mean) * c.autoMult)
	if b < c.minB {
		b = c.minB
	}
	c.budgetNs[typ].Store(int64(b))
	return b
}

// CachedBudget reports the last effective budget the dispatcher
// computed for slot i (the final slot is the unknown type). Explicit
// Config budgets are returned directly; auto-derived ones come from
// the dispatcher's atomic mirror, so this is safe from any goroutine.
func (c *Controller) CachedBudget(i int) time.Duration {
	if i < 0 || i > c.numTypes {
		return 0
	}
	if b := time.Duration(c.explicitNs[i].Load()); b > 0 {
		return b
	}
	return time.Duration(c.budgetNs[i].Load())
}

// unknownBudget is the explicit UnknownBudget, else the largest typed
// budget currently in effect.
func (c *Controller) unknownBudget() time.Duration {
	if b := time.Duration(c.explicitNs[c.numTypes].Load()); b > 0 {
		return b
	}
	var max time.Duration
	for t := 0; t < c.numTypes; t++ {
		if b := c.Budget(t); b > max {
			max = b
		}
	}
	return max
}

// ExceedsBudget reports whether a request of type typ that has queued
// for waited must be shed on deadline. A zero budget admits always.
func (c *Controller) ExceedsBudget(typ int, waited time.Duration) bool {
	b := c.Budget(typ)
	return b > 0 && waited > b
}

// overloadDelay is the EWMA threshold: the configured value, else
// half the smallest nonzero effective budget, else half MinBudget.
func (c *Controller) overloadDelay() time.Duration {
	if c.cfg.OverloadDelay > 0 {
		return c.cfg.OverloadDelay
	}
	min := time.Duration(math.MaxInt64)
	for t := 0; t < c.numTypes; t++ {
		if b := c.Budget(t); b > 0 && b < min {
			min = b
		}
	}
	if min == time.Duration(math.MaxInt64) {
		min = c.minB
	}
	return min / 2
}

// ObserveQueueDelay feeds one dispatched (or deadline-shed) request's
// queue delay into the overload EWMA. Called only by the dispatcher.
func (c *Controller) ObserveQueueDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	prev := c.ewmaNs.Load()
	next := int64(float64(prev)*(1-c.alpha) + float64(d)*c.alpha)
	c.ewmaNs.Store(next)
	// Auto-derived budgets track the profiler, so the overload
	// threshold drifts too; refresh its atomic mirror periodically
	// (every observation would be numTypes profiler reads per
	// dispatch for no precision gain).
	if c.threshRefresh--; c.threshRefresh <= 0 {
		c.threshRefresh = 256
		c.threshNs.Store(int64(c.overloadDelay()))
	}
}

// QueueDelayEWMA reports the current smoothed queue delay.
func (c *Controller) QueueDelayEWMA() time.Duration {
	return time.Duration(c.ewmaNs.Load())
}

// Overloaded reports whether the smoothed queue delay signals
// sustained overload, triggering the reverse-reservation trim. Reads
// only atomics (the dispatcher calls it every loop iteration).
func (c *Controller) Overloaded() bool {
	return c.ewmaNs.Load() > c.threshNs.Load()
}

// RetryAfter is the backoff hint stamped on NACKs: the current
// queue-delay EWMA (roughly how far behind the server is running),
// clamped to [RetryAfterMin, RetryAfterMax].
func (c *Controller) RetryAfter() time.Duration {
	d := c.QueueDelayEWMA()
	if d < c.raMin {
		return c.raMin
	}
	if d > c.raMax {
		return c.raMax
	}
	return d
}

// BacklogCap bounds how many requests of typ the overload trim leaves
// queued: budget / profiled mean (a deeper backlog is guaranteed to
// blow the budget anyway), floored at 1 so the type keeps making
// progress. Unknown or unprofiled types get 0 — under sustained
// overload the spillway is drained entirely, matching the
// reverse-reservation shed order (unknown first).
func (c *Controller) BacklogCap(typ int) int {
	if typ < 0 || typ >= c.numTypes {
		return 0
	}
	mean := c.meanOf(typ)
	b := c.Budget(typ)
	if mean <= 0 || b <= 0 {
		return 0
	}
	n := int(b / mean)
	if n < 1 {
		n = 1
	}
	return n
}

// NoteAccepted counts a request entering admission accounting. Every
// accepted request is eventually counted exactly once as completed or
// shed; conservation tests assert the identity is exact.
func (c *Controller) NoteAccepted(typ int) {
	c.slots[c.slot(typ)].accepted.Add(1)
}

// NoteCompleted counts a request whose worker finished it.
func (c *Controller) NoteCompleted(typ int) {
	c.slots[c.slot(typ)].completed.Add(1)
}

// NoteShed counts a refused (or lost) request under its reason.
func (c *Controller) NoteShed(typ int, reason ShedReason) {
	s := &c.slots[c.slot(typ)]
	switch reason {
	case ShedDeadline:
		s.shedDeadline.Add(1)
	case ShedOverload:
		s.shedOverload.Add(1)
	default:
		s.shedLost.Add(1)
	}
}

// SlotStats is one type's admission ledger.
type SlotStats struct {
	Accepted     uint64
	Completed    uint64
	ShedDeadline uint64
	ShedOverload uint64
	ShedLost     uint64
}

// Shed is the slot's total refused count.
func (s SlotStats) Shed() uint64 { return s.ShedDeadline + s.ShedOverload + s.ShedLost }

// Stats is a point-in-time controller snapshot. Slots[NumTypes] is
// the unknown/unclassified slot.
type Stats struct {
	Slots          []SlotStats
	QueueDelayEWMA time.Duration
	Overloaded     bool
}

// Totals sums the per-slot ledgers.
func (st Stats) Totals() SlotStats {
	var t SlotStats
	for _, s := range st.Slots {
		t.Accepted += s.Accepted
		t.Completed += s.Completed
		t.ShedDeadline += s.ShedDeadline
		t.ShedOverload += s.ShedOverload
		t.ShedLost += s.ShedLost
	}
	return t
}

// Snapshot reads the counters. Safe to call from any goroutine; the
// per-slot values are individually (not mutually) consistent.
func (c *Controller) Snapshot() Stats {
	st := Stats{
		Slots:          make([]SlotStats, len(c.slots)),
		QueueDelayEWMA: c.QueueDelayEWMA(),
	}
	st.Overloaded = c.Overloaded()
	for i := range c.slots {
		s := &c.slots[i]
		st.Slots[i] = SlotStats{
			Accepted:     s.accepted.Load(),
			Completed:    s.completed.Load(),
			ShedDeadline: s.shedDeadline.Load(),
			ShedOverload: s.shedOverload.Load(),
			ShedLost:     s.shedLost.Load(),
		}
	}
	return st
}
