package conformance

// Unit tests for the comparator's building blocks on synthetic data:
// these prove the invariant checkers themselves (bands, quantiles,
// FCFS inversion counting, reservation legality) independently of the
// expensive live-vs-sim matrix.

import (
	"testing"
	"time"

	"repro/internal/darc"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// newSyntheticReplayResult fabricates a perfectly-conserved replay
// accounting for a trace: everything sent, everything answered.
func newSyntheticReplayResult(tr *trace.Trace) *loadgen.Result {
	n := tr.NumTypes()
	res := &loadgen.Result{
		Sent:           uint64(tr.Len()),
		Received:       uint64(tr.Len()),
		DroppedByType:  make([]uint64, n),
		TimedOutByType: make([]uint64, n),
		Overall:        &metrics.Histogram{},
		Late:           &metrics.Histogram{},
	}
	for i := 0; i < n; i++ {
		res.Latency = append(res.Latency, &metrics.Histogram{})
	}
	return res
}

func TestBandAllows(t *testing.T) {
	b := Band{Rel: 0.5, Abs: time.Millisecond}
	cases := []struct {
		ref, got time.Duration
		want     bool
	}{
		{ref: 10 * time.Millisecond, got: 10 * time.Millisecond, want: true},
		{ref: 10 * time.Millisecond, got: 16 * time.Millisecond, want: true}, // 1.5x + 1ms
		{ref: 10 * time.Millisecond, got: 16100 * time.Microsecond, want: false},
		{ref: 10 * time.Millisecond, got: 4 * time.Millisecond, want: true},
		{ref: 10 * time.Millisecond, got: 3900 * time.Microsecond, want: false},
		{ref: 0, got: time.Millisecond, want: true}, // abs floor
		{ref: 0, got: 1100 * time.Microsecond, want: false},
	}
	for _, c := range cases {
		if got := b.Allows(c.ref, c.got); got != c.want {
			t.Errorf("Allows(%v, %v) = %v, want %v", c.ref, c.got, got, c.want)
		}
	}
}

func TestQuantileDur(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := quantileDur(s, 0.5); got != 50*time.Millisecond && got != 51*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := quantileDur(s, 0.99); got != 99*time.Millisecond && got != 100*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := quantileDur(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := quantileDur(s[:1], 0.99); got != time.Millisecond {
		t.Errorf("singleton p99 = %v", got)
	}
}

func TestDispatchInversions(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	// In-order dispatch: no inversions.
	inOrder := []trace.Span{
		{Ingress: ms(1), Dispatched: ms(2)},
		{Ingress: ms(3), Dispatched: ms(4)},
		{Ingress: ms(5), Dispatched: ms(6)},
	}
	if got := dispatchInversions(inOrder, time.Millisecond); got != 0 {
		t.Errorf("in-order inversions = %d", got)
	}
	// The request from ms(1) dispatched long after later arrivals ran.
	reordered := []trace.Span{
		{Ingress: ms(1), Dispatched: ms(50)},
		{Ingress: ms(3), Dispatched: ms(4)},
		{Ingress: ms(30), Dispatched: ms(31)},
	}
	if got := dispatchInversions(reordered, time.Millisecond); got != 1 {
		t.Errorf("reordered inversions = %d, want 1", got)
	}
	// Ties within the gap are not inversions (batch-amortized stamps).
	ties := []trace.Span{
		{Ingress: ms(10), Dispatched: ms(11)},
		{Ingress: ms(10) - 100*time.Microsecond, Dispatched: ms(12)},
	}
	if got := dispatchInversions(ties, time.Millisecond); got != 0 {
		t.Errorf("tie inversions = %d", got)
	}
}

// synthetic two-group reservation: type 0 (short) reserved {0,1} may
// steal {2,3}; type 1 (long) reserved {2} steals {3}; worker 3 is
// spillway.
func testReservation() *darc.Reservation {
	return &darc.Reservation{
		Groups: []darc.Group{
			{Types: []int{0}, Reserved: []int{0, 1}, Stealable: []int{2, 3}},
			{Types: []int{1}, Reserved: []int{2}, Stealable: []int{3}},
		},
		GroupOf:         []int{0, 1},
		SpillwayWorkers: []int{3},
	}
}

func TestReservationAllows(t *testing.T) {
	res := testReservation()
	cases := []struct {
		typ, worker int
		want        bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, true}, {0, 3, true},
		{1, 2, true}, {1, 3, true},
		{1, 0, false}, {1, 1, false}, // long stealing a short core: never
		{-1, 3, true},  // unknown on spillway
		{-1, 0, false}, // unknown off spillway
	}
	for _, c := range cases {
		sp := trace.Span{Type: c.typ, Worker: c.worker}
		if got := reservationAllows(res, sp); got != c.want {
			t.Errorf("allows(type=%d, worker=%d) = %v, want %v", c.typ, c.worker, got, c.want)
		}
	}
	if !reservationAllows(nil, trace.Span{Type: 1, Worker: 0}) {
		t.Error("nil reservation must allow everything (startup c-FCFS)")
	}
}

func TestReservationLegalTimeline(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	eps := ms(10)
	resA := testReservation()
	// resB flips the partition: short gets {2,3}+steal{0,1}, long {0}+{1}.
	resB := &darc.Reservation{
		Groups: []darc.Group{
			{Types: []int{0}, Reserved: []int{2, 3}, Stealable: []int{0, 1}},
			{Types: []int{1}, Reserved: []int{0}, Stealable: []int{1}},
		},
		GroupOf:         []int{0, 1},
		SpillwayWorkers: []int{1},
	}
	timeline := []ResUpdate{{At: ms(100), Res: resA}, {At: ms(500), Res: resB}}

	check := func(name string, sp trace.Span, want bool) {
		t.Helper()
		if got := reservationLegal(timeline, sp, eps); got != want {
			t.Errorf("%s: legal = %v, want %v", name, got, want)
		}
	}
	// Before any reservation: startup c-FCFS, everything legal.
	check("startup", trace.Span{Type: 1, Worker: 0, Dispatched: ms(50)}, true)
	// Under resA: long on worker 0 is a violation.
	check("violation-A", trace.Span{Type: 1, Worker: 0, Dispatched: ms(300)}, false)
	check("legal-A", trace.Span{Type: 1, Worker: 2, Dispatched: ms(300)}, true)
	// Under resB the same dispatch is legal.
	check("legal-B", trace.Span{Type: 1, Worker: 0, Dispatched: ms(600)}, true)
	// And a resA-legal dispatch just after the boundary passes via the
	// epsilon union…
	check("boundary", trace.Span{Type: 1, Worker: 2, Dispatched: ms(505)}, true)
	// …but not far beyond it.
	check("past-boundary", trace.Span{Type: 1, Worker: 2, Dispatched: ms(600)}, false)
	if !reservationLegal(nil, trace.Span{Type: 1, Worker: 0, Dispatched: ms(300)}, eps) {
		t.Error("empty timeline must be legal everywhere")
	}
}

// TestCompareSyntheticCatches drives Compare with fabricated runs to
// prove each structural detector fires without a live server.
func TestCompareSyntheticCatches(t *testing.T) {
	spec, err := SpecByName("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 100 * time.Millisecond
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions("darc", tr.Len())

	kinds := func(rep *Report) map[string]bool {
		out := map[string]bool{}
		for _, d := range rep.Divergences {
			out[d.Kind] = true
		}
		return out
	}

	// A live run faithful in shape: one span per record, reservation
	// installed, every dispatch legal (worker chosen per type).
	mkLive := func() *LiveRun {
		run := &LiveRun{
			Policy:              "darc",
			NumTypes:            2,
			StaticReserved:      spec.StaticReserved,
			ShortType:           0,
			ReservationAtReplay: true,
			Reservations:        []ResUpdate{{At: 0, Res: testReservation()}},
		}
		res := newSyntheticReplayResult(tr)
		run.Result = res
		for i, r := range tr.Records {
			w := 0
			if r.Type == 1 {
				w = 2
			}
			run.Spans = append(run.Spans, trace.Span{
				ID: uint64(i + 1), Type: r.Type, Worker: w,
				Ingress: r.Offset, Dispatched: r.Offset + time.Microsecond,
				Started: r.Offset + 2*time.Microsecond,
			})
		}
		return run
	}
	mkSim := func() *SimRun {
		run := &SimRun{
			Policy:      "darc",
			Arrived:     uint64(tr.Len()),
			Complete:    uint64(tr.Len()),
			PerType:     make([]uint64, 2),
			QueueDelays: make([][]time.Duration, 2),
		}
		for _, r := range tr.Records {
			run.PerType[r.Type]++
		}
		return run
	}

	if rep := Compare(spec, tr, mkSim(), mkLive(), opt); !rep.Agree() {
		t.Fatalf("faithful synthetic run diverged:\n%s", rep)
	}

	// Reservation violation: a long span on a short-reserved worker.
	live := mkLive()
	live.Spans[len(live.Spans)-1].Type = 1
	live.Spans[len(live.Spans)-1].Worker = 0
	rep := Compare(spec, tr, mkSim(), live, opt)
	if !kinds(rep)["reservation"] {
		t.Errorf("reservation violation not caught:\n%s", rep)
	}

	// Missing reservation.
	live = mkLive()
	live.ReservationAtReplay = false
	live.Reservations = nil
	rep = Compare(spec, tr, mkSim(), live, opt)
	if !kinds(rep)["reservation"] {
		t.Errorf("missing reservation not caught:\n%s", rep)
	}

	// Type-count mismatch: live served the wrong mix.
	live = mkLive()
	for i := range live.Spans {
		live.Spans[i].Type = 1 - live.Spans[i].Type
		live.Spans[i].Worker = 2 // keep reservation-legal for both types
	}
	rep = Compare(spec, tr, mkSim(), live, opt)
	if !kinds(rep)["type-counts"] {
		t.Errorf("type-count mismatch not caught:\n%s", rep)
	}

	// Lost spans.
	live = mkLive()
	live.TraceLost = 3
	rep = Compare(spec, tr, mkSim(), live, opt)
	if !kinds(rep)["trace-loss"] {
		t.Errorf("trace ring loss not caught:\n%s", rep)
	}

	// Excess timeouts.
	live = mkLive()
	live.Result.TimedOut = opt.TimeoutBudget + 5
	live.Result.Received -= opt.TimeoutBudget + 5
	rep = Compare(spec, tr, mkSim(), live, opt)
	if !kinds(rep)["live-loss"] {
		t.Errorf("timeout overrun not caught:\n%s", rep)
	}

	// Sim-side conservation break.
	sim := mkSim()
	sim.Complete--
	sim.PerType[0]--
	rep = Compare(spec, tr, sim, mkLive(), opt)
	if !kinds(rep)["sim-conservation"] {
		t.Errorf("sim conservation break not caught:\n%s", rep)
	}

	// FCFS inversion detection under a declared cfcfs policy.
	optC := DefaultOptions("cfcfs", tr.Len())
	live = mkLive()
	live.Policy = "cfcfs"
	live.Reservations = nil
	n := len(live.Spans)
	for i := 0; i < n; i += 4 {
		// Every 4th request dispatched way out of arrival order.
		live.Spans[i].Dispatched = live.Spans[i].Ingress + 80*time.Millisecond
	}
	simC := mkSim()
	simC.Policy = "cfcfs"
	rep = Compare(spec, tr, simC, live, optC)
	if !kinds(rep)["fcfs-order"] {
		t.Errorf("FCFS inversions not caught:\n%s", rep)
	}
}
