package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/darc"
)

// listIdle is the list scan the bitset lookup replaced: the first idle
// active worker named by reserved, then by stealable, or -1.
func listIdle(free []bool, active int, reserved, stealable []int) int {
	for _, ids := range [2][]int{reserved, stealable} {
		for _, w := range ids {
			if w < active && free[w] {
				return w
			}
		}
	}
	return -1
}

// ascending draws a random ascending subset of [0, n).
func ascending(rnd *rand.Rand, n int) []int {
	var ids []int
	p := rnd.Float64()
	for w := 0; w < n; w++ {
		if rnd.Float64() < p {
			ids = append(ids, w)
		}
	}
	return ids
}

// randomReservation is either Algorithm 2's output for random profiles
// over the pool or a hand-written one whose ascending lists may name
// workers past the pool, as a stale reservation does.
func randomReservation(rnd *rand.Rand, types, workers int) *darc.Reservation {
	if rnd.Intn(2) == 0 {
		stats := make([]darc.TypeStats, types)
		for i := range stats {
			stats[i] = darc.TypeStats{
				Mean:  time.Duration(1 + rnd.Intn(100_000)),
				Ratio: rnd.Float64() + 0.01,
			}
		}
		cfg := darc.DefaultConfig(workers)
		cfg.Spillway = min(1, workers-1)
		cfg.NoCycleStealing = rnd.Intn(4) == 0
		res, err := darc.ComputeReservation(stats, cfg)
		if err != nil {
			panic(err)
		}
		return res
	}
	span := workers + rnd.Intn(10)
	res := &darc.Reservation{GroupOf: make([]int, types), SpillwayWorkers: ascending(rnd, span)}
	for t := range res.GroupOf {
		res.GroupOf[t] = t
		res.Groups = append(res.Groups, darc.Group{
			Types:     []int{t},
			Reserved:  ascending(rnd, span),
			Stealable: ascending(rnd, span),
		})
	}
	return res
}

// TestBitsetLookupMatchesListScan: for random reservations, free sets
// and active bounds over pools of 1 to 130 workers, the bitset lookups
// pick the same worker as the list scans they replaced, and idleFrom
// the same as a scan up from lo.
func TestBitsetLookupMatchesListScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for n := 1; n <= 130; n++ {
		types := 1 + rnd.Intn(5)
		c := New(Config[int]{Mode: DARC, NumTypes: types, Workers: n})
		for trial := 0; trial < 40; trial++ {
			if trial%8 == 0 {
				c.buildMasks(randomReservation(rnd, types, n))
			}
			res := c.maskRes
			free := make([]bool, n)
			p := rnd.Float64()
			for w := range free {
				free[w] = rnd.Float64() < p
				if free[w] {
					c.free[w>>6] |= 1 << (w & 63)
				} else {
					c.free[w>>6] &^= 1 << (w & 63)
				}
			}
			c.active = rnd.Intn(n + 1)
			for typ := 0; typ < types; typ++ {
				want := listIdle(free, c.active, res.ReservedFor(typ), res.StealableFor(typ))
				if got := c.idleFor(typ); got != want {
					t.Fatalf("n=%d active=%d type %d: bitset picks %d, list scan %d\nfree %v\n%v",
						n, c.active, typ, got, want, free, res)
				}
			}
			if got, want := c.idleFor(types), listIdle(free, c.active, res.SpillwayWorkers, nil); got != want {
				t.Fatalf("n=%d active=%d UNKNOWN: bitset picks %d, list scan %d", n, c.active, got, want)
			}
			lo := rnd.Intn(n + 1)
			want := -1
			for w := lo; w < c.active; w++ {
				if free[w] {
					want = w
					break
				}
			}
			if got := c.idleFrom(lo); got != want {
				t.Fatalf("n=%d active=%d idleFrom(%d) = %d, want %d", n, c.active, lo, got, want)
			}
		}
	}
}

// TestReservationSwapAllocatesNothing: the first DARC pass after the
// reservation changes rebuilds the masks in place, on pools of one and
// of three words.
func TestReservationSwapAllocatesNothing(t *testing.T) {
	for _, workers := range []int{3, 130} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			a := twoGroups([]int{2}, []int{1, 2}, []int{2})
			b := twoGroups([]int{workers - 1}, []int{2, workers - 1}, []int{workers - 1})
			ctl := &fixed{order: a.order, res: a.res}
			r := newRig(Config[*item]{Mode: DARC, NumTypes: 2, Workers: workers, Controller: ctl})
			r.core.take = func(q *FIFO[*item], w int) bool { q.Pop(); return true }
			it := &item{typ: 1}
			pass := func() {
				if ctl.res == a.res {
					ctl.res = b.res
				} else {
					ctl.res = a.res
				}
				r.core.Push(1, it)
				r.core.Dispatch()
				r.core.Release(1)
			}
			pass() // grow the ring outside the measurement
			if avg := testing.AllocsPerRun(100, pass); avg != 0 {
				t.Fatalf("a pass after a reservation swap allocates %.1f objects, want 0", avg)
			}
		})
	}
}

// BenchmarkDispatchPass measures one arrival through each dispatch
// mode: push, a dispatch, and the release of the worker it chose. DARC
// runs on a reservation computed for a bimodal profile, DARC-static
// reserves half the pool, and d-FCFS steers every arrival to the idle
// worker. All but the last worker stay busy, so every lookup scans.
func BenchmarkDispatchPass(b *testing.B) {
	for _, mode := range []Mode{DARC, CFCFS, DFCFS, DARCStatic} {
		for _, workers := range []int{16, 130} {
			b.Run(fmt.Sprintf("%v/%d", mode, workers), func(b *testing.B) {
				res, err := darc.ComputeReservation([]darc.TypeStats{
					{Mean: 500 * time.Nanosecond, Ratio: 0.995},
					{Mean: 500 * time.Microsecond, Ratio: 0.005},
				}, darc.DefaultConfig(workers))
				if err != nil {
					b.Fatal(err)
				}
				var last int
				c := New(Config[int]{
					Mode: mode, NumTypes: 2, Workers: workers,
					Controller:     &fixed{order: []int{0, 1}, res: res},
					StaticMeans:    []time.Duration{500 * time.Nanosecond, 500 * time.Microsecond},
					StaticReserved: workers / 2,
					Arrival:        func(i int) time.Duration { return time.Duration(i) },
					Take:           func(q *FIFO[int], w int) bool { q.Pop(); last = w; return true },
					Steer:          func(n int) int { return n - 1 },
				})
				for w := 0; w < workers-1; w++ {
					c.free[w>>6] &^= 1 << (w & 63)
				}
				c.idle = 1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Push(i&1, i)
					c.Dispatch()
					c.Release(last)
				}
			})
		}
	}
}
