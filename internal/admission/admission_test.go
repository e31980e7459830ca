package admission

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// meanTable builds a meanOf callback from a fixed slice.
func meanTable(means ...time.Duration) func(int) time.Duration {
	return func(t int) time.Duration {
		if t < 0 || t >= len(means) {
			return 0
		}
		return means[t]
	}
}

func TestBudgetExplicitWins(t *testing.T) {
	c := New(Config{Budgets: []time.Duration{5 * time.Millisecond, 0}}, 2,
		meanTable(time.Millisecond, 2*time.Millisecond))
	if got := c.Budget(0); got != 5*time.Millisecond {
		t.Fatalf("explicit budget: got %v, want 5ms", got)
	}
	// Type 1 auto-derives: 20x 2ms = 40ms.
	if got := c.Budget(1); got != 40*time.Millisecond {
		t.Fatalf("auto budget: got %v, want 40ms", got)
	}
}

// TestAutoMultFallsBackToDefault: a multiplier that is not a positive
// finite number takes DefaultAutoMult, at construction and on Update.
// NaN or Inf times a mean converts to the minimum int64, which would
// floor every auto-derived budget at MinBudget.
func TestAutoMultFallsBackToDefault(t *testing.T) {
	mean := 2 * time.Millisecond
	def := time.Duration(float64(mean) * DefaultAutoMult)
	cases := []struct {
		mult float64
		want time.Duration
	}{
		{0, def},
		{-3, def},
		{math.NaN(), def},
		{math.Inf(1), def},
		{math.Inf(-1), def},
		{5, 5 * mean},
	}
	for _, tc := range cases {
		c := New(Config{AutoMult: tc.mult}, 1, meanTable(mean))
		if got := c.Budget(0); got != tc.want {
			t.Errorf("New with AutoMult %v: budget %v, want %v", tc.mult, got, tc.want)
		}
		c = New(Config{}, 1, meanTable(mean))
		c.Update(Config{AutoMult: tc.mult})
		if got := c.Budget(0); got != tc.want {
			t.Errorf("Update to AutoMult %v: budget %v, want %v", tc.mult, got, tc.want)
		}
	}
}

func TestBudgetAutoFloorsAtMin(t *testing.T) {
	c := New(Config{}, 1, meanTable(10*time.Microsecond))
	// 20x 10us = 200us < DefaultMinBudget.
	if got := c.Budget(0); got != DefaultMinBudget {
		t.Fatalf("floored budget: got %v, want %v", got, DefaultMinBudget)
	}
}

func TestBudgetZeroWhileUnprofiled(t *testing.T) {
	c := New(Config{}, 1, meanTable(0))
	if got := c.Budget(0); got != 0 {
		t.Fatalf("unprofiled budget: got %v, want 0", got)
	}
	if c.ExceedsBudget(0, time.Hour) {
		t.Fatal("zero budget must never deadline-shed")
	}
}

func TestUnknownBudget(t *testing.T) {
	c := New(Config{Budgets: []time.Duration{3 * time.Millisecond, 9 * time.Millisecond}}, 2,
		meanTable(0, 0))
	// Auto unknown budget = largest typed budget.
	if got := c.Budget(-1); got != 9*time.Millisecond {
		t.Fatalf("auto unknown budget: got %v, want 9ms", got)
	}
	c = New(Config{UnknownBudget: time.Millisecond}, 2, meanTable(0, 0))
	if got := c.Budget(-1); got != time.Millisecond {
		t.Fatalf("explicit unknown budget: got %v, want 1ms", got)
	}
}

func TestExceedsBudget(t *testing.T) {
	c := New(Config{Budgets: []time.Duration{2 * time.Millisecond}}, 1, meanTable(0))
	if c.ExceedsBudget(0, 2*time.Millisecond) {
		t.Fatal("waited == budget must admit")
	}
	if !c.ExceedsBudget(0, 2*time.Millisecond+1) {
		t.Fatal("waited > budget must shed")
	}
}

func TestOverloadEWMA(t *testing.T) {
	c := New(Config{
		Budgets:       []time.Duration{4 * time.Millisecond},
		OverloadDelay: time.Millisecond,
		EWMAAlpha:     0.5,
	}, 1, meanTable(time.Millisecond))
	if c.Overloaded() {
		t.Fatal("fresh controller must not be overloaded")
	}
	for i := 0; i < 20; i++ {
		c.ObserveQueueDelay(10 * time.Millisecond)
	}
	if !c.Overloaded() {
		t.Fatalf("EWMA %v above 1ms threshold must flag overload", c.QueueDelayEWMA())
	}
	for i := 0; i < 64; i++ {
		c.ObserveQueueDelay(0)
	}
	if c.Overloaded() {
		t.Fatalf("EWMA %v must decay below threshold", c.QueueDelayEWMA())
	}
}

func TestOverloadDelayAutoDerivation(t *testing.T) {
	// Auto threshold = half the smallest effective budget (2ms / 2).
	c := New(Config{Budgets: []time.Duration{2 * time.Millisecond, 8 * time.Millisecond}}, 2,
		meanTable(0, 0))
	if got := c.overloadDelay(); got != time.Millisecond {
		t.Fatalf("auto overload delay: got %v, want 1ms", got)
	}
	// No budgets at all: falls back to MinBudget/2.
	c = New(Config{}, 1, meanTable(0))
	if got := c.overloadDelay(); got != DefaultMinBudget/2 {
		t.Fatalf("fallback overload delay: got %v, want %v", got, DefaultMinBudget/2)
	}
}

func TestRetryAfterClamped(t *testing.T) {
	c := New(Config{RetryAfterMin: 2 * time.Millisecond, RetryAfterMax: 10 * time.Millisecond}, 1,
		meanTable(0))
	if got := c.RetryAfter(); got != 2*time.Millisecond {
		t.Fatalf("idle retry-after: got %v, want clamp floor 2ms", got)
	}
	for i := 0; i < 200; i++ {
		c.ObserveQueueDelay(time.Second)
	}
	if got := c.RetryAfter(); got != 10*time.Millisecond {
		t.Fatalf("saturated retry-after: got %v, want clamp ceiling 10ms", got)
	}
}

func TestBacklogCap(t *testing.T) {
	c := New(Config{Budgets: []time.Duration{10 * time.Millisecond}}, 1,
		meanTable(3*time.Millisecond))
	if got := c.BacklogCap(0); got != 3 {
		t.Fatalf("backlog cap: got %d, want 3", got)
	}
	// Mean larger than budget still leaves 1 queued.
	c = New(Config{Budgets: []time.Duration{time.Millisecond}}, 1,
		meanTable(5*time.Millisecond))
	if got := c.BacklogCap(0); got != 1 {
		t.Fatalf("backlog cap floor: got %d, want 1", got)
	}
	// Unknown and unprofiled types drain fully.
	if got := c.BacklogCap(-1); got != 0 {
		t.Fatalf("unknown backlog cap: got %d, want 0", got)
	}
	c = New(Config{Budgets: []time.Duration{time.Millisecond}}, 1, meanTable(0))
	if got := c.BacklogCap(0); got != 1 {
		// Explicit budget but no profile: int(b/mean) undefined, cap
		// comes out 0 -> drain fully is also acceptable; pin actual.
		if got := c.BacklogCap(0); got != 0 {
			t.Fatalf("unprofiled backlog cap: got %d", got)
		}
	}
}

func TestCountersConservation(t *testing.T) {
	c := New(Config{}, 2, meanTable(0, 0))
	for i := 0; i < 10; i++ {
		c.NoteAccepted(0)
	}
	for i := 0; i < 5; i++ {
		c.NoteAccepted(1)
	}
	c.NoteAccepted(-1)
	for i := 0; i < 7; i++ {
		c.NoteCompleted(0)
	}
	c.NoteShed(0, ShedDeadline)
	c.NoteShed(0, ShedOverload)
	c.NoteShed(0, ShedLost)
	for i := 0; i < 5; i++ {
		c.NoteCompleted(1)
	}
	c.NoteShed(-1, ShedOverload)

	st := c.Snapshot()
	if len(st.Slots) != 3 {
		t.Fatalf("slots: got %d, want 3 (2 typed + unknown)", len(st.Slots))
	}
	for i, s := range st.Slots {
		if s.Accepted != s.Completed+s.Shed() {
			t.Errorf("slot %d: accepted %d != completed %d + shed %d", i, s.Accepted, s.Completed, s.Shed())
		}
	}
	tot := st.Totals()
	if tot.Accepted != 16 || tot.Completed != 12 || tot.Shed() != 4 {
		t.Fatalf("totals: %+v", tot)
	}
	if st.Slots[2].ShedOverload != 1 {
		t.Fatalf("unknown slot overload sheds: got %d, want 1", st.Slots[2].ShedOverload)
	}
}

// TestColdStartWarmTransition covers the controller's cold-start
// contract end to end: an auto-budgeted type is never deadline-shed
// while the profiler has no estimate, and the first profile estimate
// flips it to normal budget enforcement without touching the ledger.
func TestColdStartWarmTransition(t *testing.T) {
	var mean atomic.Int64 // profiled mean, installed mid-test
	c := New(Config{}, 1, func(typ int) time.Duration {
		return time.Duration(mean.Load())
	})

	// Cold: no profile, auto budget 0, arbitrarily old requests admit.
	if c.Budget(0) != 0 {
		t.Fatalf("cold budget: got %v, want 0", c.Budget(0))
	}
	for _, waited := range []time.Duration{0, time.Second, time.Hour} {
		if c.ExceedsBudget(0, waited) {
			t.Fatalf("cold start shed a request that waited %v", waited)
		}
	}
	c.NoteAccepted(0)
	c.NoteCompleted(0)

	// Warm: the profiler reports 1ms, so the budget derives to
	// AutoMult x 1ms = 20ms and enforcement starts.
	mean.Store(int64(time.Millisecond))
	want := time.Duration(float64(time.Millisecond) * DefaultAutoMult)
	if got := c.Budget(0); got != want {
		t.Fatalf("warm budget: got %v, want %v", got, want)
	}
	if c.ExceedsBudget(0, want) {
		t.Fatal("warm: waited == budget must still admit")
	}
	if !c.ExceedsBudget(0, want+1) {
		t.Fatal("warm: over-budget request must shed")
	}
	// The warm transition must not disturb the ledger.
	st := c.Snapshot()
	if st.Slots[0].Accepted != 1 || st.Slots[0].Completed != 1 {
		t.Fatalf("ledger disturbed by warm transition: %+v", st.Slots[0])
	}
}

// TestUpdateReplacesBudgets exercises the live-reconfiguration path:
// Update swaps the explicit budgets (visible to both the dispatcher's
// Budget and the exporter's CachedBudget), re-derives the overload
// threshold, and preserves the accounting ledger across the swap.
func TestUpdateReplacesBudgets(t *testing.T) {
	c := New(Config{Budgets: []time.Duration{2 * time.Millisecond, 0}}, 2,
		meanTable(0, 0))
	c.NoteAccepted(0)
	c.NoteShed(0, ShedDeadline)

	if got := c.CachedBudget(0); got != 2*time.Millisecond {
		t.Fatalf("pre-update cached budget: got %v, want 2ms", got)
	}
	c.Update(Config{
		Budgets:       []time.Duration{8 * time.Millisecond, 3 * time.Millisecond},
		UnknownBudget: 5 * time.Millisecond,
		OverloadDelay: time.Millisecond,
	})
	if got := c.Budget(0); got != 8*time.Millisecond {
		t.Fatalf("post-update budget(0): got %v, want 8ms", got)
	}
	if got := c.Budget(1); got != 3*time.Millisecond {
		t.Fatalf("post-update budget(1): got %v, want 3ms", got)
	}
	if got := c.Budget(-1); got != 5*time.Millisecond {
		t.Fatalf("post-update unknown budget: got %v, want 5ms", got)
	}
	for i, want := range []time.Duration{8 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond} {
		if got := c.CachedBudget(i); got != want {
			t.Fatalf("post-update CachedBudget(%d): got %v, want %v", i, got, want)
		}
	}
	if got := c.OverloadThreshold(); got != time.Millisecond {
		t.Fatalf("post-update overload threshold: got %v, want 1ms", got)
	}
	// A budget dropped back to auto (0) must clear the explicit slot.
	c.Update(Config{Budgets: []time.Duration{0, 3 * time.Millisecond}})
	if got := c.Budget(0); got != 0 {
		t.Fatalf("cleared budget must auto-derive from empty profile, got %v", got)
	}
	// The ledger survives both updates.
	st := c.Snapshot()
	if st.Slots[0].Accepted != 1 || st.Slots[0].ShedDeadline != 1 {
		t.Fatalf("ledger lost across Update: %+v", st.Slots[0])
	}
}
