// Package conformance differentially tests the two implementations of
// the paper's scheduling claims — the discrete-event simulator
// (internal/cluster) and the live dispatcher (internal/psp) — by
// driving both from the same seeded arrival trace and checking that
// they agree: structural invariants exactly (request conservation,
// per-type dispatch counts, reservation legality, FCFS dispatch
// order), latency distributions statistically (per-type queue-delay
// quantile bands). A mutation catalogue perturbs the live scheduler
// and asserts the comparator notices, proving the harness has teeth.
package conformance

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceSpec pins one canonical conformance workload: a mix, an
// offered rate, a horizon and a seed, from which Generate derives the
// exact same arrival trace forever. The committed CSVs under
// testdata/conformance/ are these specs' output, golden-pinned by
// TestCanonicalTracesPinned.
type TraceSpec struct {
	Name     string
	Mix      workload.Mix
	Rate     float64 // requests per second
	Duration time.Duration
	Seed     uint64

	// Workers is the worker count both sides run with.
	Workers int
	// StaticReserved parameterises the darc-static policy case.
	StaticReserved int
	// WarmupFraction of each side's samples is discarded before the
	// statistical comparison (structural checks always see everything).
	WarmupFraction float64
}

// CanonicalSpecs returns the three pinned conformance workloads.
//
// The mixes keep the paper's *shape* (bimodal dispersion, exponential
// tails, a five-type TPC-C transaction profile) but are rescaled for a
// live side that reproduces service demands with time.Sleep on a
// shared CI host, where the timer tick makes any sleep land 0–2ms
// late. Two consequences drive every number below:
//
//   - service means sit at multiple milliseconds, so the tick noise is
//     a bounded relative error instead of a 10x distortion;
//   - type ratios and mean gaps are chosen so DARC's demand-share
//     rounding lands in the middle of an integer bin: both sides'
//     profilers see finite noisy windows, and a mix parked on a
//     rounding boundary would flip core allocations between runs and
//     drown the comparison in discretization flips.
func CanonicalSpecs() []TraceSpec {
	return []TraceSpec{
		{
			// The paper's High Bimodal shape: fixed-cost shorts versus
			// 5x-dispersed fixed-cost longs, an even split.
			Name: "bimodal",
			Mix: workload.Mix{
				Name: "conf-bimodal",
				Types: []workload.TypeSpec{
					{Name: "S", Ratio: 0.5, Service: rng.Fixed(4 * time.Millisecond)},
					{Name: "L", Ratio: 0.5, Service: rng.Fixed(20 * time.Millisecond)},
				},
			},
			Rate:           185,
			Duration:       3000 * time.Millisecond,
			Seed:           101,
			Workers:        4,
			StaticReserved: 1,
			WarmupFraction: 0.2,
		},
		{
			// Exponential service on both classes: the heavy-tailed
			// variant where per-request demand is unpredictable. The 10x
			// mean gap (not 5x) is deliberate: both sides' profilers see
			// exponential samples through a short-window EWMA, and a
			// closer gap lets an unlucky window drift the two types
			// within DARC's 3x grouping threshold — collapsing the
			// reservation into one all-worker group on one side only.
			Name: "exp",
			Mix: workload.Mix{
				Name: "conf-exp",
				Types: []workload.TypeSpec{
					{Name: "ShortExp", Ratio: 0.5, Service: rng.Exponential(4 * time.Millisecond)},
					{Name: "LongExp", Ratio: 0.5, Service: rng.Exponential(40 * time.Millisecond)},
				},
			},
			Rate:           100,
			Duration:       3600 * time.Millisecond,
			Seed:           202,
			Workers:        4,
			StaticReserved: 1,
			WarmupFraction: 0.2,
		},
		{
			// A TPC-C-shaped five-type transaction profile (Payment
			// cheapest through StockLevel dearest, as in Table 4); the
			// ratios are rebalanced from the paper's 44/4 split so the
			// two short-heavy and two long types each carry enough
			// occurrence mass for stable demand estimation.
			Name: "tpcc",
			Mix: workload.Mix{
				Name: "conf-tpcc",
				Types: []workload.TypeSpec{
					{Name: "Payment", Ratio: 0.30, Service: rng.Fixed(3 * time.Millisecond)},
					{Name: "OrderStatus", Ratio: 0.15, Service: rng.Fixed(3900 * time.Microsecond)},
					{Name: "NewOrder", Ratio: 0.15, Service: rng.Fixed(4800 * time.Microsecond)},
					{Name: "Delivery", Ratio: 0.25, Service: rng.Fixed(20 * time.Millisecond)},
					{Name: "StockLevel", Ratio: 0.15, Service: rng.Fixed(26 * time.Millisecond)},
				},
			},
			Rate:           150,
			Duration:       2800 * time.Millisecond,
			Seed:           303,
			Workers:        3,
			StaticReserved: 1,
			WarmupFraction: 0.2,
		},
	}
}

// SpecByName finds a canonical spec.
func SpecByName(name string) (TraceSpec, error) {
	for _, s := range CanonicalSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return TraceSpec{}, fmt.Errorf("conformance: unknown canonical trace %q", name)
}

// sourceGen adapts workload.Source to trace.Generator.
type sourceGen struct{ src *workload.Source }

func (g sourceGen) Next() (time.Duration, int, time.Duration) {
	a := g.src.Next()
	return a.Gap, a.Type, a.Service
}

// Generate materialises the spec's arrival trace. Same spec, same
// bytes — the generator chain (xorshift RNG, Poisson source) has no
// hidden state, so this is the replayable ground truth both the sim
// and the live server consume.
func (ts TraceSpec) Generate() (*trace.Trace, error) {
	return ts.generateSeeded(ts.Seed)
}

// GenerateSeeded is Generate with the spec's seed replaced, used by
// the mutation matrix to get fresh-but-reproducible arrival sequences
// per detection round.
func (ts TraceSpec) GenerateSeeded(seed uint64) (*trace.Trace, error) {
	return ts.generateSeeded(seed)
}

func (ts TraceSpec) generateSeeded(seed uint64) (*trace.Trace, error) {
	if err := ts.Mix.Validate(); err != nil {
		return nil, err
	}
	if ts.Rate <= 0 || ts.Duration <= 0 {
		return nil, fmt.Errorf("conformance: spec %q needs positive rate and duration", ts.Name)
	}
	src, err := workload.NewSource(ts.Mix, ts.Rate, rng.New(seed))
	if err != nil {
		return nil, err
	}
	tr := trace.Generate(sourceGen{src}, ts.Duration)
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("conformance: spec %q generated an empty trace", ts.Name)
	}
	return tr, nil
}

// warmupCut reports the arrival offset before which samples are
// discarded from the statistical comparison.
func (ts TraceSpec) warmupCut() time.Duration {
	return time.Duration(float64(ts.Duration) * ts.WarmupFraction)
}

// shortestType reports the type index with the smallest mean service
// time — the type darc-static protects.
func (ts TraceSpec) shortestType() int {
	best := 0
	for i, t := range ts.Mix.Types {
		if t.Service.Mean() < ts.Mix.Types[best].Service.Mean() {
			best = i
		}
	}
	return best
}

// Policies lists the policy cases every canonical trace must conform
// under: every policy with a live form, so a policy the core gains is
// conformance-tested with no further edit.
func Policies() []sched.Spec { return sched.LiveSpecs() }

// bind fills in the arguments a declared policy takes from the case,
// so the sim and the live server run the same Spec: the spec's
// darc-static reservation, and a d-FCFS steering seed drawn from the
// run's seed. Each kind reads only its own argument.
func (ts TraceSpec) bind(p sched.Spec, seed uint64) sched.Spec {
	p.StaticReserved = ts.StaticReserved
	p.SteerSeed = seed | 1
	return p
}
