package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/darc"
)

// item is a queued request: a name for the assertions, a type and an
// arrival instant.
type item struct {
	name string
	typ  int
	at   time.Duration
}

// rig drives a core over items and records every hand-off as
// "name->worker".
type rig struct {
	core *Core[*item]
	got  []string
	now  time.Duration
}

func newRig(cfg Config[*item]) *rig {
	r := &rig{}
	cfg.Arrival = func(it *item) time.Duration { return it.at }
	cfg.Type = func(it *item) int { return it.typ }
	cfg.Take = func(q *FIFO[*item], w int) bool {
		r.got = append(r.got, fmt.Sprintf("%s->%d", q.Pop().name, w))
		return true
	}
	r.core = New(cfg)
	return r
}

// push queues a named arrival, one tick after the previous one.
func (r *rig) push(t *testing.T, name string, typ int) {
	t.Helper()
	r.now++
	if !r.core.Push(typ, &item{name: name, typ: typ, at: r.now}) {
		t.Fatalf("push %s refused", name)
	}
}

// dispatch runs the core and returns the hand-offs it made.
func (r *rig) dispatch() []string {
	r.got = nil
	r.core.Dispatch()
	return r.got
}

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-offs %v, want %v", got, want)
	}
}

// fixed is a Reserver with a hand-written reservation.
type fixed struct {
	order []int
	res   *darc.Reservation
}

func (f *fixed) DispatchOrder() []int             { return f.order }
func (f *fixed) Reservation() *darc.Reservation   { return f.res }
func (f *fixed) Resize(workers int) (bool, error) { return false, nil }

// twoGroups reserves worker 0 for t0 and worker 1 for t1; t0 may steal
// the rest of the pool, t1 only the spillway.
func twoGroups(spillway []int, stealT0, stealT1 []int) *fixed {
	return &fixed{order: []int{0, 1}, res: &darc.Reservation{
		Groups: []darc.Group{
			{Types: []int{0}, Reserved: []int{0}, Stealable: stealT0},
			{Types: []int{1}, Reserved: []int{1}, Stealable: stealT1},
		},
		GroupOf:         []int{0, 1},
		SpillwayWorkers: spillway,
	}}
}

// TestDARCPassOrder pins Algorithm 1's pass structure: one request per
// type per pass, passes repeated until none moves. Draining t0 before
// t1 would give t0->0, t0->1, t1->2 instead.
func TestDARCPassOrder(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: DARC, NumTypes: 2, Workers: 3,
		Controller: twoGroups([]int{2}, []int{1, 2}, []int{2}),
	})
	r.push(t, "t0a", 0)
	r.push(t, "t0b", 0)
	r.push(t, "t1a", 1)
	expect(t, r.dispatch(), "t0a->0", "t1a->1", "t0b->2")
}

// TestDARCStartupWindowIsFCFS: without a reservation DARC hands the
// earliest arrival to the lowest idle worker. Equal arrivals break by
// a strict < over typed heads in type order, UNKNOWN last.
func TestDARCStartupWindowIsFCFS(t *testing.T) {
	r := newRig(Config[*item]{Mode: DARC, NumTypes: 2, Workers: 3, Controller: &fixed{order: []int{0, 1}}})
	for _, it := range []*item{{"u", -1, 5}, {"t1", 1, 5}, {"t0", 0, 5}} {
		r.core.Push(it.typ, it)
	}
	expect(t, r.dispatch(), "t0->0", "t1->1", "u->2")
}

func TestUnknownFallback(t *testing.T) {
	t.Run("spillway busy", func(t *testing.T) {
		// A designated spillway is the only place UNKNOWN runs.
		r := newRig(Config[*item]{
			Mode: DARC, NumTypes: 2, Workers: 3,
			Controller: twoGroups([]int{2}, []int{1, 2}, []int{2}),
		})
		r.push(t, "busy", 1)
		r.push(t, "busy2", 1)
		expect(t, r.dispatch(), "busy->1", "busy2->2")
		r.push(t, "u", -1)
		expect(t, r.dispatch())
		r.core.Release(2)
		expect(t, r.dispatch(), "u->2")
	})
	t.Run("no spillway", func(t *testing.T) {
		// Without spillway workers UNKNOWN runs on any idle worker, but
		// only after every typed queue had its turn in the pass.
		r := newRig(Config[*item]{
			Mode: DARC, NumTypes: 2, Workers: 2,
			Controller: twoGroups(nil, []int{1}, nil),
		})
		r.push(t, "u1", -1)
		r.push(t, "u2", 7) // out of range: UNKNOWN too
		r.push(t, "t1", 1)
		expect(t, r.dispatch(), "t1->1", "u1->0")
		r.core.Release(1)
		expect(t, r.dispatch(), "u2->1")
	})
}

// TestStaleReservationBounded: a reservation computed for a larger pool
// names workers at or above the active bound; the core never
// dispatches to them.
func TestStaleReservationBounded(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: DARC, NumTypes: 2, Workers: 2,
		Controller: twoGroups([]int{3}, []int{1, 2, 3}, []int{2, 3}),
	})
	r.push(t, "t1a", 1)
	r.push(t, "t1b", 1)
	r.push(t, "u", -1)
	// t1 owns worker 1; its stealable 2 and 3 and the spillway 3 are
	// all outside the pool, so worker 0 (t0's) idles.
	expect(t, r.dispatch(), "t1a->1")
	r.core.Release(1)
	expect(t, r.dispatch(), "t1b->1")

	// The same holds for slots a shrink retired.
	r = newRig(Config[*item]{
		Mode: DARC, NumTypes: 2, Workers: 4,
		Controller: twoGroups([]int{3}, []int{1, 2, 3}, []int{2, 3}),
	})
	if _, _, err := r.core.Resize(2); err != nil {
		t.Fatal(err)
	}
	r.push(t, "t0a", 0)
	r.push(t, "t0b", 0)
	r.push(t, "t0c", 0)
	expect(t, r.dispatch(), "t0a->0", "t0b->1")
}

// TestDARCStaticEligibility: the short type (by static mean, not by
// ID) runs anywhere; longer types and UNKNOWN only on workers at or
// above StaticReserved.
func TestDARCStaticEligibility(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: DARCStatic, NumTypes: 2, Workers: 4,
		StaticMeans:    []time.Duration{10 * time.Millisecond, time.Millisecond},
		StaticReserved: 2,
	})
	r.push(t, "long1", 0)
	r.push(t, "long2", 0)
	r.push(t, "long3", 0)
	r.push(t, "u", -1)
	// One pass: long1 takes worker 2, UNKNOWN (scanned last) worker 3;
	// workers 0 and 1 stay idle for the short type.
	expect(t, r.dispatch(), "long1->2", "u->3")
	r.push(t, "short1", 1)
	r.push(t, "short2", 1)
	r.push(t, "short3", 1)
	expect(t, r.dispatch(), "short1->0", "short2->1")
	r.core.Release(3)
	expect(t, r.dispatch(), "short3->3")
	r.core.Release(3)
	expect(t, r.dispatch(), "long2->3")
	r.core.Release(0)
	expect(t, r.dispatch())
	r.core.Release(2)
	expect(t, r.dispatch(), "long3->2")
}

func TestDFCFSPerWorkerQueues(t *testing.T) {
	steer := []int{1, 1, 0}
	r := newRig(Config[*item]{
		Mode: DFCFS, NumTypes: 1, Workers: 2,
		Steer: func(n int) int { w := steer[0]; steer = steer[1:]; return w },
	})
	r.push(t, "a", 0)
	r.push(t, "b", 0)
	r.push(t, "c", 0)
	expect(t, r.dispatch(), "c->0", "a->1")
	r.core.Release(0)
	expect(t, r.dispatch()) // worker 0's queue is empty; b waits for 1
	r.core.Release(1)
	expect(t, r.dispatch(), "b->1")
}

// TestCFCFSSingleQueue pins the configuration the simulator's c-FCFS
// runs: no typed queue, so every arrival, whatever its type, waits on
// the one UNKNOWN queue. Each arrival is pushed and dispatched in turn,
// all at the same instant; then every worker is released in ID order.
func TestCFCFSSingleQueue(t *testing.T) {
	cases := []struct {
		name     string
		workers  int
		queueCap int
		idle     []int // idle before the arrivals; nil: every worker
		arrivals []int // types, named a, b, c, ...
		want     []string
		refused  []string
	}{
		{
			name: "push order", workers: 3, arrivals: []int{1, 0, -1, 5, 0},
			want: []string{"a->0", "b->1", "c->2", "d->0", "e->1"},
		},
		{
			name: "lowest idle worker", workers: 4, idle: []int{1, 3}, arrivals: []int{0, 0, 0},
			want: []string{"a->1", "b->3", "c->0"},
		},
		{
			name: "more than 64 workers", workers: 70, idle: []int{64, 69}, arrivals: []int{0, 1, 2},
			want: []string{"a->64", "b->69", "c->0"},
		},
		{
			name: "drops at QueueCap", workers: 1, queueCap: 2, arrivals: []int{0, 1, 0, 1, 0},
			want: []string{"a->0", "b->0"}, refused: []string{"d", "e"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(Config[*item]{Mode: CFCFS, Workers: tc.workers, QueueCap: tc.queueCap})
			if tc.idle != nil {
				clear(r.core.free)
				for _, w := range tc.idle {
					r.core.free[w>>6] |= 1 << (w & 63)
				}
				r.core.idle = len(tc.idle)
			}
			var got []string
			var refused []*item
			for i, typ := range tc.arrivals {
				it := &item{name: string(rune('a' + i)), typ: typ}
				if !r.core.Push(typ, it) {
					refused = append(refused, it)
					continue
				}
				got = append(got, r.dispatch()...)
			}
			if n := r.core.Unknown().Len(); n != r.core.Queued() {
				t.Fatalf("%d queued, %d of them on UNKNOWN", r.core.Queued(), n)
			}
			for w := 0; w < tc.workers; w++ {
				r.core.Release(w)
				got = append(got, r.dispatch()...)
			}
			expect(t, got, tc.want...)
			if names(refused) != fmt.Sprint(tc.refused) {
				t.Fatalf("refused %s, want %v", names(refused), tc.refused)
			}
		})
	}
}

// dispatchDFCFSLoop is the d-FCFS dispatch the single pass replaced:
// passes over the active workers until one moves nothing.
func dispatchDFCFSLoop(c *Core[*item]) bool {
	moved := false
	for c.idle > 0 {
		pass := false
		for w := 0; w < c.active; w++ {
			if c.Idle(w) && !c.perWorker[w].Empty() && c.assign(&c.perWorker[w], w) {
				pass = true
			}
		}
		if !pass {
			break
		}
		moved = true
	}
	return moved
}

// TestDFCFSSinglePassMatchesLoop drives two d-FCFS cores through the
// same random pushes, releases (retired slots included) and resizes
// over pools of up to 130 workers; one dispatches with the single
// pass, the other with the loop it replaced. Take sheds "stale" heads
// as admission does. Both must make the same hand-offs in the same
// order and end every step in the same state.
func TestDFCFSSinglePassMatchesLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for seq := 0; seq < 200; seq++ {
		n, queueCap, seed := 1+rnd.Intn(130), rnd.Intn(4), rnd.Int63()
		var cores [2]*Core[*item]
		var logs [2][]string
		for i := range cores {
			steer := rand.New(rand.NewSource(seed))
			cores[i] = New(Config[*item]{
				Mode: DFCFS, Workers: n, QueueCap: queueCap,
				Arrival: func(it *item) time.Duration { return it.at },
				Type:    func(it *item) int { return it.typ },
				Steer:   steer.Intn,
				Take: func(q *FIFO[*item], w int) bool {
					for !q.Empty() {
						if it := q.Pop(); it.name != "stale" {
							logs[i] = append(logs[i], fmt.Sprintf("%d->%d", it.at, w))
							return true
						}
					}
					return false
				},
			})
		}
		for op := 0; op < 300; op++ {
			var desc string
			switch k := rnd.Intn(10); {
			case k < 6:
				it := &item{name: "fresh", at: time.Duration(op)}
				if rnd.Intn(5) == 0 {
					it.name = "stale"
				}
				desc = fmt.Sprintf("push %v", it)
				for _, c := range cores {
					c.Push(0, it)
				}
			case k < 9:
				w := rnd.Intn(len(cores[0].perWorker))
				desc = fmt.Sprintf("release %d", w)
				for _, c := range cores {
					c.Release(w)
				}
			default:
				m := 1 + rnd.Intn(130)
				desc = fmt.Sprintf("resize %d", m)
				var over [2]string
				for i, c := range cores {
					_, overflow, _ := c.Resize(m)
					over[i] = names(overflow)
				}
				if over[0] != over[1] {
					t.Fatalf("seq %d op %d %s: overflow %s vs %s", seq, op, desc, over[0], over[1])
				}
			}
			logs[0], logs[1] = logs[0][:0], logs[1][:0]
			pass, loop := cores[0].Dispatch(), dispatchDFCFSLoop(cores[1])
			a, b := cores[0], cores[1]
			if pass != loop || !reflect.DeepEqual(logs[0], logs[1]) ||
				!reflect.DeepEqual(a.free, b.free) || a.idle != b.idle || a.Queued() != b.Queued() {
				t.Fatalf("seq %d (%d workers) op %d %s:\npass moved %v %v, idle %d, queued %d\nloop moved %v %v, idle %d, queued %d",
					seq, n, op, desc, pass, logs[0], a.idle, a.Queued(), loop, logs[1], b.idle, b.Queued())
			}
		}
	}
}

// TestMigration swaps central <-> per-worker queues: arrival order is
// kept across the families and what the target has no room for comes
// back, oldest first, for the caller to shed.
func TestMigration(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: CFCFS, NumTypes: 2, Workers: 2, QueueCap: 2,
		Steer: func(n int) int { return 0 },
	})
	r.push(t, "a", 0)
	r.push(t, "b", 1)
	r.push(t, "c", 0)
	r.push(t, "d", -1)
	moved, overflow := r.core.SetMode(DFCFS)
	if moved != 2 || names(overflow) != "[c d]" {
		t.Fatalf("to d-FCFS moved %d, overflow %s; want 2, [c d]", moved, names(overflow))
	}
	if got := names(drainAll(&r.core.perWorker[0])); got != "[a b]" {
		t.Fatalf("worker 0 queue %s, want [a b]", got)
	}

	r.push(t, "e", 1)
	r.push(t, "f", 0)
	moved, overflow = r.core.SetMode(CFCFS)
	if moved != 2 || len(overflow) != 0 {
		t.Fatalf("to c-FCFS moved %d, overflow %s; want 2, none", moved, names(overflow))
	}
	expect(t, r.dispatch(), "e->0", "f->1")

	if moved, overflow := r.core.SetMode(DARCStatic); moved != 0 || overflow != nil {
		t.Fatal("a swap within the central family migrates nothing")
	}
}

// TestResize covers the core's share of a pool resize: the d-FCFS
// re-steer of retired workers' backlogs and the DARC-static clamp.
func TestResize(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: DFCFS, NumTypes: 1, Workers: 3, QueueCap: 2,
		Steer: func(n int) int { return n - 1 },
	})
	for _, name := range []string{"a", "b"} {
		r.push(t, name, 0) // both on worker 2
	}
	moved, overflow, err := r.core.Resize(2)
	if err != nil || moved != 2 || overflow != nil {
		t.Fatalf("shrink moved %d overflow %s err %v", moved, names(overflow), err)
	}
	if got := names(drainAll(&r.core.perWorker[1])); got != "[a b]" {
		t.Fatalf("worker 1 queue %s, want [a b]", got)
	}
	// A retired slot's completion frees it without making it
	// schedulable; a grow counts it idle again.
	r.core.Release(2)
	if r.core.idle != 2 {
		t.Fatalf("%d idle after releasing a retired worker, want 2", r.core.idle)
	}
	if _, _, err := r.core.Resize(4); err != nil || r.core.Active() != 4 || !r.core.Idle(3) || r.core.idle != 4 {
		t.Fatalf("grow: active %d, idle(3) %v, %d idle, err %v", r.core.Active(), r.core.Idle(3), r.core.idle, err)
	}

	s := newRig(Config[*item]{
		Mode: DARCStatic, NumTypes: 1, Workers: 4,
		StaticMeans: []time.Duration{time.Millisecond}, StaticReserved: 3,
	})
	s.core.Resize(3)
	if got := s.core.StaticReserved(); got != 2 {
		t.Fatalf("static reserved %d after shrink to 3, want 2", got)
	}
}

// TestTakeMayShed: a Take that discards heads (admission shedding)
// counts as progress but leaves the worker idle.
func TestTakeMayShed(t *testing.T) {
	r := newRig(Config[*item]{Mode: CFCFS, NumTypes: 1, Workers: 1})
	r.core.take = func(q *FIFO[*item], w int) bool {
		if q.Pop().name == "stale" {
			return false
		}
		r.got = append(r.got, "fresh")
		return true
	}
	r.push(t, "stale", 0)
	r.push(t, "fresh", 0)
	expect(t, r.dispatch(), "fresh")
	if r.core.Idle(0) || r.core.Queued() != 0 {
		t.Fatal("the admissible head must occupy the worker")
	}
}

func TestDispatchAllocatesNothing(t *testing.T) {
	r := newRig(Config[*item]{
		Mode: DARC, NumTypes: 2, Workers: 3,
		Controller: twoGroups([]int{2}, []int{1, 2}, []int{2}),
	})
	r.core.take = func(q *FIFO[*item], w int) bool { q.Pop(); return true }
	it := &item{typ: 0}
	r.core.Push(0, it) // grow the ring outside the measurement
	r.core.Dispatch()
	r.core.Release(0)
	if avg := testing.AllocsPerRun(100, func() {
		r.core.Push(0, it)
		r.core.Dispatch()
		r.core.Release(0)
	}); avg != 0 {
		t.Fatalf("push + dispatch allocates %.1f objects, want 0", avg)
	}
}

// TestDrain empties typed queues in type order, then per-worker
// queues, then UNKNOWN — the order a shutdown answers them in.
func TestDrain(t *testing.T) {
	r := newRig(Config[*item]{Mode: CFCFS, NumTypes: 2, Workers: 1, Steer: func(int) int { return 0 }})
	r.push(t, "u", -1)
	r.push(t, "t1", 1)
	r.push(t, "t0", 0)
	r.core.SetMode(DFCFS)
	r.push(t, "w0", 0)
	r.core.SetMode(CFCFS) // back to typed + UNKNOWN queues
	r.core.perWorker[0].Push(&item{name: "late"})
	var got []*item
	r.core.Drain(func(it *item) { got = append(got, it) })
	if names(got) != "[t0 w0 t1 late u]" || r.core.Queued() != 0 {
		t.Fatalf("drained %s, %d left", names(got), r.core.Queued())
	}
	if r.core.Typed(0).Len()+r.core.Unknown().Len() != 0 {
		t.Fatal("queues not empty after Drain")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{DARC: "DARC", CFCFS: "c-FCFS", DFCFS: "d-FCFS", DARCStatic: "DARC-static"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func drainAll(q *FIFO[*item]) []*item {
	var out []*item
	for !q.Empty() {
		out = append(out, q.Pop())
	}
	return out
}

func names(items []*item) string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.name
	}
	return fmt.Sprint(out)
}
