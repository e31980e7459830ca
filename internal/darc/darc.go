// Package darc implements the paper's primary contribution: the
// Dynamic Application-aware Reserved Cores scheduling policy.
//
// DARC is application aware (requests carry a type assigned by a
// user-provided classifier), non-preemptive, and deliberately not work
// conserving: it profiles each type's CPU demand, groups types with
// similar service times, reserves whole cores per group (Algorithm 2),
// and dispatches typed queues in ascending service-time order
// (Algorithm 1). Shorter groups may steal cycles from cores reserved
// for longer groups — never the reverse — and spillway cores guarantee
// service to under-provisioned groups and unknown requests.
//
// The package is engine-agnostic: the discrete-event simulator policy
// and the live dispatcher both drive a Controller, so the simulated and
// real schedulers share one implementation.
package darc

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// UnknownType marks requests the classifier could not recognize; they
// are only eligible for spillway cores.
const UnknownType = -1

// Config carries DARC's tuning knobs. The defaults mirror the paper's
// evaluation settings.
type Config struct {
	// Workers is the total number of application workers, including
	// spillway cores.
	Workers int
	// Delta is the service-time similarity factor: a type joins a
	// group when its mean service time is within a factor Delta of the
	// group's smallest mean.
	Delta float64
	// MinWindowSamples is the minimum number of profiled completions
	// before a reservation update may fire (paper: 50000).
	MinWindowSamples uint64
	// DemandDeviation is the minimum relative change in any type's CPU
	// demand required to trigger an update (paper: 10%).
	DemandDeviation float64
	// QueueDelaySLO triggers the update check when a request's queueing
	// delay exceeds this multiple of its type's average service time
	// (paper: 10x).
	QueueDelaySLO float64
	// Spillway is the number of cores set aside as spillway (paper: 1).
	Spillway int
	// EWMAAlpha is the weight of a new sample in the per-type moving
	// average of service times.
	EWMAAlpha float64
	// NoCycleStealing disables borrowing cores reserved for longer
	// groups, degrading DARC to strict static partitioning — the
	// ablation that shows why burst tolerance needs stealing (§3).
	NoCycleStealing bool
}

// DefaultConfig returns the paper's evaluation configuration for the
// given worker count.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:          workers,
		Delta:            3.0,
		MinWindowSamples: 50000,
		DemandDeviation:  0.10,
		QueueDelaySLO:    10,
		Spillway:         1,
		EWMAAlpha:        0.05,
	}
}

// AutoWindow sizes the profiling window for a simulated run of
// horizon at rate requests per second: half the arrivals of the
// run's first 10%, its warm-up discard, so the c-FCFS startup phase
// ends before measurement starts. The result is clamped to [lo, hi].
func AutoWindow(rate float64, horizon time.Duration, lo, hi uint64) uint64 {
	return min(hi, max(lo, uint64(rate*horizon.Seconds()*0.1*0.5)))
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		return fmt.Errorf("darc: config needs a positive worker count, got %d", c.Workers)
	}
	if c.Delta <= 1 {
		c.Delta = 3.0
	}
	if c.MinWindowSamples == 0 {
		c.MinWindowSamples = 50000
	}
	if c.DemandDeviation <= 0 {
		c.DemandDeviation = 0.10
	}
	if c.QueueDelaySLO <= 0 {
		c.QueueDelaySLO = 10
	}
	if c.Spillway < 0 {
		c.Spillway = 0
	}
	if c.Spillway >= c.Workers {
		return fmt.Errorf("darc: %d spillway cores leave no schedulable workers out of %d", c.Spillway, c.Workers)
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.05
	}
	return nil
}

// TypeStats is a profiled request type: its moving-average service
// time and its occurrence ratio within the current profiling window.
type TypeStats struct {
	Mean  time.Duration
	Ratio float64
}

// Group is a set of types with similar service times sharing a
// reservation.
type Group struct {
	// Types holds member type IDs, sorted by ascending mean service.
	Types []int
	// MeanService is the demand-weighted contribution ΣS·R of members.
	MeanService time.Duration
	// Demand is the group's CPU demand as a fraction of the machine.
	Demand float64
	// Reserved are worker IDs dedicated to this group.
	Reserved []int
	// Stealable are worker IDs the group may borrow: cores reserved to
	// strictly longer groups, leftover unreserved cores and spillway
	// cores.
	Stealable []int
}

// Reservation is the output of Algorithm 2 for one profiling snapshot.
type Reservation struct {
	// Groups is sorted by ascending mean service time.
	Groups []Group
	// GroupOf maps type ID -> index into Groups.
	GroupOf []int
	// Demands holds the per-type CPU demand fractions the reservation
	// was computed from, used for the update trigger.
	Demands []float64
	// SpillwayWorkers lists the designated spillway core IDs (the
	// highest-numbered workers).
	SpillwayWorkers []int
}

// ReservedFor returns the worker IDs reserved for the given type's
// group, or only the spillway for UnknownType.
func (r *Reservation) ReservedFor(typ int) []int {
	if typ == UnknownType || typ >= len(r.GroupOf) || typ < 0 {
		return r.SpillwayWorkers
	}
	return r.Groups[r.GroupOf[typ]].Reserved
}

// StealableFor returns the worker IDs the given type's group may
// borrow.
func (r *Reservation) StealableFor(typ int) []int {
	if typ == UnknownType || typ >= len(r.GroupOf) || typ < 0 {
		return nil
	}
	return r.Groups[r.GroupOf[typ]].Stealable
}

// GroupTypes groups types whose mean service times fall within a
// factor delta of each other. Types are sorted ascending by mean; a
// type opens a new group when its mean exceeds delta times the current
// group's smallest mean. Zero-mean (never seen) types are grouped with
// the shortest group so they cannot starve.
func GroupTypes(stats []TypeStats, delta float64) [][]int {
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return stats[order[a]].Mean < stats[order[b]].Mean
	})
	var groups [][]int
	var groupMin time.Duration
	for _, t := range order {
		m := stats[t].Mean
		if len(groups) == 0 {
			groups = append(groups, []int{t})
			groupMin = m
			continue
		}
		if groupMin > 0 && float64(m) > delta*float64(groupMin) {
			groups = append(groups, []int{t})
			groupMin = m
			continue
		}
		last := len(groups) - 1
		groups[last] = append(groups[last], t)
		if groupMin == 0 {
			groupMin = m
		}
	}
	return groups
}

// ComputeReservation implements Algorithm 2: group similar types,
// compute each group's average CPU demand (Equation 1), and attribute
// round(demand × workers) cores per group (minimum 1), in ascending
// service-time order. When the free pool is exhausted, groups receive
// the spillway core(s). Shorter groups may steal from cores reserved
// later (longer groups) and from never-reserved cores.
func ComputeReservation(stats []TypeStats, cfg Config) (*Reservation, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("darc: no type statistics to reserve from")
	}
	typeGroups := GroupTypes(stats, cfg.Delta)

	// Total demand-weighted service time S = Σ Sj·Rj across all types.
	var total float64
	demands := make([]float64, len(stats))
	for _, s := range stats {
		total += float64(s.Mean) * s.Ratio
	}
	if total <= 0 {
		return nil, fmt.Errorf("darc: zero aggregate service demand")
	}
	for i, s := range stats {
		demands[i] = float64(s.Mean) * s.Ratio / total
	}

	res := &Reservation{
		GroupOf: make([]int, len(stats)),
		Demands: demands,
	}
	nSpill := cfg.Spillway
	for w := cfg.Workers - nSpill; w < cfg.Workers; w++ {
		res.SpillwayWorkers = append(res.SpillwayWorkers, w)
	}

	// The free pool covers every worker; the designated spillway cores
	// are the highest-numbered workers, which are therefore handed out
	// last and returned (shared) once the pool is exhausted. Workers
	// are handed out in ID order so allocations are stable and
	// readable (the paper's TPC-C walkthrough numbers workers the same
	// way).
	next := 0
	nextFree := func() int {
		if next < cfg.Workers {
			w := next
			next++
			return w
		}
		// Pool exhausted: hand out the spillway core (shared, possibly
		// repeatedly). With no designated spillway, fall back to the
		// last worker so under-provisioned groups are never denied
		// service.
		if nSpill == 0 {
			return cfg.Workers - 1
		}
		return res.SpillwayWorkers[0]
	}

	for gi, members := range typeGroups {
		g := Group{Types: members}
		var gd float64
		for _, t := range members {
			res.GroupOf[t] = gi
			gd += demands[t]
			g.MeanService += time.Duration(float64(stats[t].Mean) * stats[t].Ratio)
		}
		g.Demand = gd
		// The paper's Algorithm 2 writes round(d) with d = g.S/S, but
		// its own TPC-C walkthrough attributes round(Δ·W) workers; we
		// implement the walkthrough (see DESIGN.md).
		p := int(math.Round(gd * float64(cfg.Workers)))
		if p == 0 {
			p = 1
		}
		for i := 0; i < p; i++ {
			w := nextFree()
			if len(g.Reserved) > 0 && w == g.Reserved[len(g.Reserved)-1] {
				break // spillway repeated: stop growing
			}
			g.Reserved = append(g.Reserved, w)
		}
		res.Groups = append(res.Groups, g)
	}

	// Stealable sets: group g may borrow cores reserved by strictly
	// longer groups, cores that were never reserved, and the spillway.
	if cfg.NoCycleStealing {
		return res, nil
	}
	reservedBy := make(map[int]int) // worker -> group index
	for gi := range res.Groups {
		for _, w := range res.Groups[gi].Reserved {
			if _, taken := reservedBy[w]; !taken {
				reservedBy[w] = gi
			}
		}
	}
	for gi := range res.Groups {
		g := &res.Groups[gi]
		for w := 0; w < cfg.Workers; w++ {
			owner, taken := reservedBy[w]
			switch {
			case taken && owner > gi:
				g.Stealable = append(g.Stealable, w)
			case !taken:
				g.Stealable = append(g.Stealable, w)
			}
		}
	}
	return res, nil
}

// String summarises the reservation for logs and operator tooling:
// one clause per group with its reserved cores and steal range.
func (r *Reservation) String() string {
	var b strings.Builder
	for gi, g := range r.Groups {
		if gi > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "g%d(types %v, demand %.2f, reserved %v", gi, g.Types, g.Demand, g.Reserved)
		if len(g.Stealable) > 0 {
			fmt.Fprintf(&b, ", steals %v", g.Stealable)
		}
		b.WriteString(")")
	}
	if len(r.SpillwayWorkers) > 0 {
		fmt.Fprintf(&b, "; spillway %v", r.SpillwayWorkers)
	}
	return b.String()
}

// DemandDeviates reports whether any type's demand moved by more than
// threshold (relative where possible, absolute for near-zero bases).
func DemandDeviates(old, new []float64, threshold float64) bool {
	if len(old) != len(new) {
		return true
	}
	for i := range old {
		diff := math.Abs(new[i] - old[i])
		base := math.Abs(old[i])
		if base < 1e-9 {
			if diff > threshold {
				return true
			}
			continue
		}
		if diff/base > threshold {
			return true
		}
	}
	return false
}
