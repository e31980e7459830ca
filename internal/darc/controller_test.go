package darc

import (
	"testing"
	"time"
)

func TestProfilerObserveAndSnapshot(t *testing.T) {
	p := NewProfiler(2, 0.5)
	p.Observe(0, 10*time.Microsecond)
	p.Observe(0, 20*time.Microsecond)
	p.Observe(1, 100*time.Microsecond)
	if p.WindowSamples() != 3 {
		t.Fatalf("window samples %d", p.WindowSamples())
	}
	// First sample seeds the EWMA; second moves halfway (alpha 0.5).
	if got := p.MeanService(0); got != 15*time.Microsecond {
		t.Fatalf("type 0 mean %v, want 15µs", got)
	}
	snap := p.Snapshot()
	if snap[0].Ratio < 0.66 || snap[0].Ratio > 0.67 {
		t.Fatalf("type 0 ratio %g, want 2/3", snap[0].Ratio)
	}
	if snap[1].Mean != 100*time.Microsecond {
		t.Fatalf("type 1 mean %v", snap[1].Mean)
	}
}

func TestProfilerUnknown(t *testing.T) {
	p := NewProfiler(1, 0.5)
	p.Observe(-1, time.Microsecond)
	p.Observe(5, time.Microsecond)
	p.Observe(0, time.Microsecond)
	snap := p.Snapshot()
	// Unknown samples don't dilute classified ratios.
	if snap[0].Ratio != 1 {
		t.Fatalf("ratio %g, want 1", snap[0].Ratio)
	}
	if p.WindowSamples() != 3 {
		t.Fatalf("window %d", p.WindowSamples())
	}
}

func TestProfilerRotateKeepsEWMA(t *testing.T) {
	p := NewProfiler(1, 0.5)
	p.Observe(0, 8*time.Microsecond)
	p.Rotate()
	if p.WindowSamples() != 0 {
		t.Fatal("rotate did not clear window")
	}
	if p.MeanService(0) != 8*time.Microsecond {
		t.Fatal("rotate cleared the moving average")
	}
	if p.Snapshot()[0].Ratio != 0 {
		t.Fatal("rotate kept occurrence counts")
	}
}

func TestProfilerOutOfRangeMean(t *testing.T) {
	p := NewProfiler(1, 0.5)
	if p.MeanService(-1) != 0 || p.MeanService(5) != 0 {
		t.Fatal("out-of-range type has non-zero mean")
	}
}

func newTestController(t *testing.T, minSamples uint64) *Controller {
	t.Helper()
	ctl, err := NewController(Config{
		Workers:          14,
		Delta:            3,
		MinWindowSamples: minSamples,
		DemandDeviation:  0.10,
		QueueDelaySLO:    10,
		Spillway:         1,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func feedHighBimodal(ctl *Controller, n int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ctl.Observe(0, time.Microsecond)
		} else {
			ctl.Observe(1, 100*time.Microsecond)
		}
	}
}

func TestControllerStartupWindow(t *testing.T) {
	ctl := newTestController(t, 100)
	if ctl.Reservation() != nil {
		t.Fatal("reservation exists before any sample")
	}
	feedHighBimodal(ctl, 50)
	if ctl.MaybeUpdate() {
		t.Fatal("updated below MinWindowSamples")
	}
	feedHighBimodal(ctl, 50)
	if !ctl.MaybeUpdate() {
		t.Fatal("first reservation did not install at window end")
	}
	res := ctl.Reservation()
	if res == nil {
		t.Fatal("no reservation after update")
	}
	if got := len(res.Groups[0].Reserved); got != 1 {
		t.Fatalf("short group reserved %d cores, want 1", got)
	}
	if ctl.Updates() != 1 {
		t.Fatalf("updates %d", ctl.Updates())
	}
}

func TestControllerRequiresPressure(t *testing.T) {
	ctl := newTestController(t, 100)
	feedHighBimodal(ctl, 100)
	ctl.MaybeUpdate()
	// Same composition, no queue-delay pressure: no further updates.
	feedHighBimodal(ctl, 200)
	if ctl.MaybeUpdate() {
		t.Fatal("updated without pressure")
	}
	if ctl.Updates() != 1 {
		t.Fatalf("updates %d", ctl.Updates())
	}
}

// TestMaybeUpdateWithoutPressureAllocatesNothing pins the common case
// once a reservation exists: the window is full, nothing waited too
// long, and every completion's MaybeUpdate must return without
// allocating.
func TestMaybeUpdateWithoutPressureAllocatesNothing(t *testing.T) {
	ctl := newTestController(t, 100)
	feedHighBimodal(ctl, 100)
	if !ctl.MaybeUpdate() {
		t.Fatal("first reservation did not install")
	}
	feedHighBimodal(ctl, 200)
	if n := testing.AllocsPerRun(100, func() { ctl.MaybeUpdate() }); n != 0 {
		t.Fatalf("MaybeUpdate without pressure: %v allocs, want 0", n)
	}
}

func TestControllerPressureWithoutDeviationHolds(t *testing.T) {
	ctl := newTestController(t, 100)
	feedHighBimodal(ctl, 100)
	ctl.MaybeUpdate()
	feedHighBimodal(ctl, 100)
	// Pressure but identical composition → no update.
	ctl.NoteQueueDelay(0, time.Second)
	if ctl.MaybeUpdate() {
		t.Fatal("updated without demand deviation")
	}
}

func TestControllerReactsToCompositionChange(t *testing.T) {
	ctl := newTestController(t, 100)
	feedHighBimodal(ctl, 100)
	ctl.MaybeUpdate()
	before := len(ctl.Reservation().Groups[0].Reserved)
	// The workload flips: shorts become rare, longs dominate; demand
	// shifts and queues build.
	for i := 0; i < 300; i++ {
		if i%10 == 0 {
			ctl.Observe(0, time.Microsecond)
		} else {
			ctl.Observe(1, 100*time.Microsecond)
		}
	}
	ctl.NoteQueueDelay(1, 10*time.Millisecond)
	if !ctl.MaybeUpdate() {
		t.Fatal("no update despite pressure + deviation")
	}
	after := ctl.Reservation()
	if after == nil || ctl.Updates() != 2 {
		t.Fatalf("updates %d", ctl.Updates())
	}
	_ = before // allocations may or may not change size; the update itself is the contract
}

func TestControllerNoteQueueDelayThreshold(t *testing.T) {
	ctl := newTestController(t, 10)
	ctl.Observe(0, time.Microsecond)
	// Below 10x the profiled mean: no pressure armed.
	ctl.NoteQueueDelay(0, 5*time.Microsecond)
	if ctl.pressure {
		t.Fatal("pressure armed below SLO")
	}
	ctl.NoteQueueDelay(0, 50*time.Microsecond)
	if !ctl.pressure {
		t.Fatal("pressure not armed above SLO")
	}
	// Unprofiled types cannot arm pressure (mean unknown).
	ctl2 := newTestController(t, 10)
	ctl2.NoteQueueDelay(0, time.Hour)
	if ctl2.pressure {
		t.Fatal("pressure armed with no profile")
	}
}

func TestControllerOnUpdateHook(t *testing.T) {
	ctl := newTestController(t, 10)
	var got *Reservation
	ctl.OnUpdate = func(r *Reservation) { got = r }
	feedHighBimodal(ctl, 10)
	ctl.MaybeUpdate()
	if got == nil || got != ctl.Reservation() {
		t.Fatal("OnUpdate not invoked with the new reservation")
	}
}

func TestControllerForceUpdate(t *testing.T) {
	ctl := newTestController(t, 1_000_000)
	feedHighBimodal(ctl, 10)
	if !ctl.ForceUpdate() {
		t.Fatal("ForceUpdate failed")
	}
	if ctl.Reservation() == nil {
		t.Fatal("no reservation after ForceUpdate")
	}
	// ForceUpdate on an empty profile fails gracefully.
	ctl2 := newTestController(t, 10)
	if ctl2.ForceUpdate() {
		t.Fatal("ForceUpdate succeeded with no samples")
	}
}

func TestControllerDispatchOrder(t *testing.T) {
	ctl := newTestController(t, 10)
	ctl.Observe(0, 100*time.Microsecond)
	ctl.Observe(1, time.Microsecond)
	order := ctl.DispatchOrder()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order %v, want [1 0]", order)
	}
	// The result is reused scratch: every call must rebuild it from the
	// identity order, so types whose means tie come out by ID whatever
	// the previous call returned, and no call allocates.
	ctl = newTestController(t, 10)
	ctl.cfg.EWMAAlpha = 1
	ctl.prof = NewProfiler(2, 1) // mean == last sample
	ctl.Observe(0, 100*time.Microsecond)
	ctl.Observe(1, time.Microsecond)
	ctl.DispatchOrder() // [1 0]
	ctl.Observe(1, 100*time.Microsecond)
	if order := ctl.DispatchOrder(); order[0] != 0 || order[1] != 1 {
		t.Fatalf("order %v on tied means, want [0 1]", order)
	}
	if allocs := testing.AllocsPerRun(100, func() { ctl.DispatchOrder() }); allocs != 0 {
		t.Fatalf("DispatchOrder allocates %.0f objects per call, want 0", allocs)
	}
	// The order is sorted again only after a completion, counted by the
	// profiler itself, so one observed around the controller counts.
	ctl.Profiler().Observe(0, 200*time.Microsecond)
	if order := ctl.DispatchOrder(); order[0] != 1 || order[1] != 0 {
		t.Fatalf("order %v after a direct Profiler().Observe, want [1 0]", order)
	}
}

func TestControllerConfigValidation(t *testing.T) {
	if _, err := NewController(Config{Workers: 0}, 2); err == nil {
		t.Fatal("zero workers accepted")
	}
}
