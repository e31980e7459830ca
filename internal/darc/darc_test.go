package darc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func tpccStats() []TypeStats {
	// Table 4: Payment 5.7µs/44%, OrderStatus 6µs/4%, NewOrder 20µs/44%,
	// Delivery 88µs/4%, StockLevel 100µs/4%.
	return []TypeStats{
		{Mean: 5700 * time.Nanosecond, Ratio: 0.44},
		{Mean: 6 * time.Microsecond, Ratio: 0.04},
		{Mean: 20 * time.Microsecond, Ratio: 0.44},
		{Mean: 88 * time.Microsecond, Ratio: 0.04},
		{Mean: 100 * time.Microsecond, Ratio: 0.04},
	}
}

func highBimodalStats() []TypeStats {
	return []TypeStats{
		{Mean: time.Microsecond, Ratio: 0.5},
		{Mean: 100 * time.Microsecond, Ratio: 0.5},
	}
}

func extremeBimodalStats() []TypeStats {
	return []TypeStats{
		{Mean: 500 * time.Nanosecond, Ratio: 0.995},
		{Mean: 500 * time.Microsecond, Ratio: 0.005},
	}
}

func TestGroupTypesTPCC(t *testing.T) {
	groups := GroupTypes(tpccStats(), 3.0)
	// Paper §5.4.3: {Payment, OrderStatus}, {NewOrder}, {Delivery, StockLevel}.
	if len(groups) != 3 {
		t.Fatalf("got %d groups: %v", len(groups), groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("group A %v, want [0 1]", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != 2 {
		t.Fatalf("group B %v, want [2]", groups[1])
	}
	if len(groups[2]) != 2 || groups[2][0] != 3 || groups[2][1] != 4 {
		t.Fatalf("group C %v, want [3 4]", groups[2])
	}
}

func TestGroupTypesSingle(t *testing.T) {
	groups := GroupTypes([]TypeStats{{Mean: time.Microsecond, Ratio: 1}}, 2)
	if len(groups) != 1 || len(groups[0]) != 1 {
		t.Fatalf("groups %v", groups)
	}
}

func TestGroupTypesZeroMeanJoinsFirstGroup(t *testing.T) {
	stats := []TypeStats{
		{Mean: 0, Ratio: 0}, // never profiled
		{Mean: time.Microsecond, Ratio: 0.5},
		{Mean: 100 * time.Microsecond, Ratio: 0.5},
	}
	groups := GroupTypes(stats, 2)
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %v", len(groups), groups)
	}
	// The zero-mean type sorts first and shares the first group.
	if groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("first group %v", groups[0])
	}
}

func TestGroupTypesDeltaMonotone(t *testing.T) {
	// Larger delta never yields more groups.
	stats := tpccStats()
	prev := len(GroupTypes(stats, 1.01))
	for _, delta := range []float64{1.5, 2, 3, 5, 10, 100} {
		n := len(GroupTypes(stats, delta))
		if n > prev {
			t.Fatalf("delta %g produced %d groups, more than %d", delta, n, prev)
		}
		prev = n
	}
	if len(GroupTypes(stats, 100)) != 1 {
		t.Fatal("huge delta should collapse to one group")
	}
}

func TestReservationTPCCWalkthrough(t *testing.T) {
	// Paper §5.4.3 on 14 workers: group A gets 2 workers, B gets 6,
	// C gets 6; A steals from B and C's cores, B from C's, C nothing.
	res, err := ComputeReservation(tpccStats(), Config{Workers: 14, Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("%d groups", len(res.Groups))
	}
	a, b, c := res.Groups[0], res.Groups[1], res.Groups[2]
	if len(a.Reserved) != 2 {
		t.Fatalf("group A reserved %v, want 2 workers", a.Reserved)
	}
	if len(b.Reserved) != 6 {
		t.Fatalf("group B reserved %v, want 6 workers", b.Reserved)
	}
	if len(c.Reserved) != 6 {
		t.Fatalf("group C reserved %v, want 6 workers", c.Reserved)
	}
	// A's stealable = B ∪ C's 12 cores; B's = C's 6; C's = none.
	if len(a.Stealable) != 12 {
		t.Fatalf("group A stealable %v", a.Stealable)
	}
	if len(b.Stealable) != 6 {
		t.Fatalf("group B stealable %v", b.Stealable)
	}
	if len(c.Stealable) != 0 {
		t.Fatalf("group C stealable %v, want none", c.Stealable)
	}
	// Worker IDs 0..13 covered exactly once.
	seen := map[int]bool{}
	for _, g := range res.Groups {
		for _, w := range g.Reserved {
			if seen[w] {
				t.Fatalf("worker %d reserved twice", w)
			}
			seen[w] = true
		}
	}
	if len(seen) != 14 {
		t.Fatalf("reserved %d distinct workers, want 14", len(seen))
	}
}

func TestReservationHighBimodal(t *testing.T) {
	// §5.2: DARC reserves 1 core for short requests on 14 workers
	// (demand 0.0099·14 = 0.14 → rounds to 0 → minimum 1).
	res, err := ComputeReservation(highBimodalStats(), Config{Workers: 14, Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	short := res.Groups[0]
	long := res.Groups[1]
	if len(short.Reserved) != 1 {
		t.Fatalf("short reserved %v, want 1 core", short.Reserved)
	}
	if len(long.Reserved) != 13 {
		t.Fatalf("long reserved %d cores, want 13", len(long.Reserved))
	}
	if len(short.Stealable) != 13 {
		t.Fatalf("short stealable %d, want 13 (all long cores)", len(short.Stealable))
	}
	if len(long.Stealable) != 0 {
		t.Fatalf("long stealable %v, want none", long.Stealable)
	}
}

func TestReservationExtremeBimodal(t *testing.T) {
	// §5.4.2: DARC reserves 2 cores for shorts on 14 workers
	// (demand 0.166·14 = 2.32 → 2).
	res, err := ComputeReservation(extremeBimodalStats(), Config{Workers: 14, Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Groups[0].Reserved); got != 2 {
		t.Fatalf("short reserved %d cores, want 2", got)
	}
	if got := len(res.Groups[1].Reserved); got != 12 {
		t.Fatalf("long reserved %d cores, want 12", got)
	}
}

func TestReservationSpillwayExhaustion(t *testing.T) {
	// Two short heavy groups soak up all cores; the long light group
	// must still get the spillway core.
	stats := []TypeStats{
		{Mean: time.Microsecond, Ratio: 0.60},
		{Mean: 10 * time.Microsecond, Ratio: 0.395},
		{Mean: 100 * time.Microsecond, Ratio: 0.005},
	}
	res, err := ComputeReservation(stats, Config{Workers: 4, Delta: 2, Spillway: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Groups[len(res.Groups)-1]
	if len(last.Reserved) == 0 {
		t.Fatal("light group denied service entirely")
	}
	spill := res.SpillwayWorkers[0]
	if spill != 3 {
		t.Fatalf("spillway worker %d, want 3", spill)
	}
	if last.Reserved[0] != spill {
		t.Fatalf("light group reserved %v, want the spillway %d", last.Reserved, spill)
	}
}

func TestReservationUnknownRoutesToSpillway(t *testing.T) {
	res, err := ComputeReservation(highBimodalStats(), Config{Workers: 14, Delta: 3, Spillway: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := res.ReservedFor(UnknownType)
	if len(got) != 1 || got[0] != 13 {
		t.Fatalf("unknown reserved %v, want [13]", got)
	}
	if res.StealableFor(UnknownType) != nil {
		t.Fatal("unknown type should not steal")
	}
}

func TestReservedForOutOfRange(t *testing.T) {
	res, _ := ComputeReservation(highBimodalStats(), Config{Workers: 4, Delta: 3})
	if got := res.ReservedFor(99); len(got) != len(res.SpillwayWorkers) {
		t.Fatalf("out-of-range type got %v", got)
	}
}

func TestReservationErrors(t *testing.T) {
	if _, err := ComputeReservation(nil, Config{Workers: 4}); err == nil {
		t.Fatal("empty stats accepted")
	}
	if _, err := ComputeReservation(highBimodalStats(), Config{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := ComputeReservation([]TypeStats{{Mean: 0, Ratio: 1}}, Config{Workers: 4}); err == nil {
		t.Fatal("zero demand accepted")
	}
	if _, err := ComputeReservation(highBimodalStats(), Config{Workers: 2, Spillway: 2}); err == nil {
		t.Fatal("all-spillway config accepted")
	}
}

// TestReservationInvariants property-checks Algorithm 2 over random
// type populations.
func TestReservationInvariants(t *testing.T) {
	check := func(rawMeans []uint16, rawRatios []uint8, w uint8) bool {
		workers := int(w%30) + 2
		n := len(rawMeans)
		if n == 0 || n > 12 || len(rawRatios) < n {
			return true
		}
		stats := make([]TypeStats, n)
		var ratioSum float64
		for i := 0; i < n; i++ {
			stats[i] = TypeStats{
				Mean:  time.Duration(int(rawMeans[i])%100000+1) * time.Nanosecond,
				Ratio: float64(int(rawRatios[i])%100 + 1),
			}
			ratioSum += stats[i].Ratio
		}
		for i := range stats {
			stats[i].Ratio /= ratioSum
		}
		res, err := ComputeReservation(stats, Config{Workers: workers, Delta: 2})
		if err != nil {
			return false
		}
		// Invariant 1: every group has at least one reserved worker
		// with a valid ID.
		for _, g := range res.Groups {
			if len(g.Reserved) == 0 {
				return false
			}
			for _, id := range append(append([]int{}, g.Reserved...), g.Stealable...) {
				if id < 0 || id >= workers {
					return false
				}
			}
		}
		// Invariant 2: groups are sorted by ascending mean service.
		for gi := 1; gi < len(res.Groups); gi++ {
			if res.Groups[gi].MeanService < res.Groups[gi-1].MeanService {
				// MeanService is demand-weighted so not strictly
				// monotone; check member means instead.
				prevMax := stats[res.Groups[gi-1].Types[len(res.Groups[gi-1].Types)-1]].Mean
				curMin := stats[res.Groups[gi].Types[0]].Mean
				if curMin < prevMax {
					return false
				}
			}
		}
		// Invariant 3: no group may steal a core reserved by an
		// earlier (shorter) group.
		firstOwner := map[int]int{}
		for gi, g := range res.Groups {
			for _, wid := range g.Reserved {
				if _, ok := firstOwner[wid]; !ok {
					firstOwner[wid] = gi
				}
			}
		}
		for gi, g := range res.Groups {
			for _, wid := range g.Stealable {
				if owner, ok := firstOwner[wid]; ok && owner <= gi {
					return false
				}
			}
		}
		// Invariant 4: every type maps to exactly one group that
		// contains it.
		for ti := range stats {
			gi := res.GroupOf[ti]
			found := false
			for _, m := range res.Groups[gi].Types {
				if m == ti {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNoCycleStealing(t *testing.T) {
	cfg := Config{Workers: 14, Delta: 3, NoCycleStealing: true}
	res, err := ComputeReservation(tpccStats(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if len(g.Stealable) != 0 {
			t.Fatalf("group %d has stealable cores %v with stealing disabled", gi, g.Stealable)
		}
		if len(g.Reserved) == 0 {
			t.Fatalf("group %d lost its reservation", gi)
		}
	}
}

func TestDemandDeviates(t *testing.T) {
	base := []float64{0.5, 0.5}
	if DemandDeviates(base, []float64{0.52, 0.48}, 0.10) {
		t.Fatal("4% change flagged at 10% threshold")
	}
	if !DemandDeviates(base, []float64{0.60, 0.40}, 0.10) {
		t.Fatal("20% change not flagged")
	}
	if !DemandDeviates(base, []float64{0.5}, 0.10) {
		t.Fatal("length change not flagged")
	}
	if !DemandDeviates([]float64{0, 1}, []float64{0.2, 0.8}, 0.10) {
		t.Fatal("growth from zero base not flagged")
	}
	if DemandDeviates([]float64{0, 1}, []float64{0.05, 0.95}, 0.10) {
		t.Fatal("small absolute growth from zero base flagged")
	}
}

func TestReservationString(t *testing.T) {
	res, err := ComputeReservation(tpccStats(), Config{Workers: 14, Delta: 3, Spillway: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"g0(", "g1(", "g2(", "reserved", "spillway"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
	// Group C (longest) cannot steal, so its clause has no steal list.
	if strings.Count(s, "steals") != 2 {
		t.Fatalf("want exactly 2 stealing groups in %s", s)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(14)
	if cfg.Workers != 14 || cfg.MinWindowSamples != 50000 || cfg.Spillway != 1 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.QueueDelaySLO != 10 || cfg.DemandDeviation != 0.10 {
		t.Fatalf("defaults %+v", cfg)
	}
}

// TestReservationTPCCDelta101StarvesStockLevel pins the reservation
// behind the ablation-delta row at δ = 1.01, where every TPC-C type is
// its own group. The demand shares .13, .013, .46, .18 and .21 of 14
// cores round to 2, 0 (floored to 1), 6, 3 and 3: 15 cores, one more
// than the machine has. Workers are handed out in group order, so
// StockLevel, the last and longest group, gets {12, 13}, and 13 is
// also the spillway. Two cores hold about 2.5 cores of demand at 85 %
// load, and with nothing reserved after it StockLevel can steal from
// no one: its queue grows without bound.
func TestReservationTPCCDelta101StarvesStockLevel(t *testing.T) {
	cfg := DefaultConfig(14) // the ablation's config: one spillway core
	cfg.Delta = 1.01
	res, err := ComputeReservation(tpccStats(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantShares := []float64{0.1315, 0.0126, 0.4615, 0.1846, 0.2098}
	wantReserved := [][]int{{0, 1}, {2}, {3, 4, 5, 6, 7, 8}, {9, 10, 11}, {12, 13}}
	if len(res.Groups) != len(wantReserved) {
		t.Fatalf("%d groups, want one per type: %s", len(res.Groups), res)
	}
	rounded := 0
	for gi, g := range res.Groups {
		if len(g.Types) != 1 || g.Types[0] != gi {
			t.Fatalf("group %d holds types %v, want [%d]", gi, g.Types, gi)
		}
		if math.Abs(g.Demand-wantShares[gi]) > 0.0005 {
			t.Errorf("group %d demand %.4f, want %.4f", gi, g.Demand, wantShares[gi])
		}
		rounded += max(1, int(math.Round(g.Demand*14)))
		if fmt.Sprint(g.Reserved) != fmt.Sprint(wantReserved[gi]) {
			t.Errorf("group %d reserved %v, want %v", gi, g.Reserved, wantReserved[gi])
		}
	}
	if rounded != 15 {
		t.Errorf("rounded reservations sum to %d, want 15 (one over 14 workers)", rounded)
	}
	if fmt.Sprint(res.SpillwayWorkers) != "[13]" {
		t.Errorf("spillway %v, want [13]", res.SpillwayWorkers)
	}
	stock := res.Groups[4]
	if len(stock.Stealable) != 0 {
		t.Errorf("StockLevel stealable %v, want none", stock.Stealable)
	}
	if demand := stock.Demand * 14 * 0.85; demand <= float64(len(stock.Reserved)) {
		t.Errorf("StockLevel demand %.2f cores at 85%% load fits its %d cores", demand, len(stock.Reserved))
	}
}
