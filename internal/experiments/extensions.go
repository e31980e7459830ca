package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Extension experiments beyond the paper's figures: they probe DARC
// where the paper's evaluation (fixed service times, Poisson arrivals,
// single server) does not.

// ExtVariance replaces the paper's fixed per-type service times with
// exponential ones (same means): the profiler now sees real variance
// and the reservation sizing must still hold. High Bimodal, 14
// workers.
func ExtVariance(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.Mix{
		Name: "HighBimodal-exp",
		Types: []workload.TypeSpec{
			{Name: "short", Ratio: 0.5, Service: rng.Exponential(time.Microsecond)},
			{Name: "long", Ratio: 0.5, Service: rng.Exponential(100 * time.Microsecond)},
		},
	}
	const workers = 14
	s, err := paperGrid(opt, mix, workers,
		specDARC(workers, len(mix.Types)),
		specCFCFS(),
		specShinjukuMQ(5*time.Microsecond, len(mix.Types)),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("ext_variance", "exponential (not fixed) service times, High Bimodal means, 14 workers")
	lat := s.typedLatency("ext_variance_latency", "per-type p99.9 latency with exponential service")
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 20x slowdown: DARC sustains %.2f vs c-FCFS %.2f — profiling tolerates service-time variance",
		s.sustainable("DARC", 20), s.sustainable("c-FCFS", 20)))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// ExtBurst replays a bursty (on/off MMPP) arrival trace: bursts at 4x
// the base rate for ~5ms, quiet phases between. Cycle stealing is what
// lets DARC's small short-request reservation absorb the bursts; the
// no-stealing variant shows the difference.
func ExtBurst(opt Options) ([]*Table, error) {
	opt = opt.fill()
	// Extreme Bimodal: shorts need ~2.3 cores at peak, so a 4x burst
	// pushes their instantaneous demand well past the reservation and
	// only cycle stealing can absorb it.
	mix := workload.ExtremeBimodal()
	const workers = 14
	peak := mix.PeakLoad(workers)
	bsrc, err := workload.NewBurstySource(mix, 0.50*peak, 4, 5*time.Millisecond, 15*time.Millisecond, rng.New(opt.Seed))
	if err != nil {
		return nil, err
	}
	tr := trace.Generate(bsrc, opt.Duration)
	if tr.Len() == 0 {
		return nil, fmt.Errorf("experiments: empty bursty trace")
	}

	g := paperGrid(opt, mix, workers, specDARC(workers, len(mix.Types)), specDARCNoSteal(workers, len(mix.Types)), specCFCFS())
	g.Trace = tr
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ext_burst",
		Title:  fmt.Sprintf("bursty arrivals (on/off MMPP, 4x bursts, avg %.2f of peak): p99.9 slowdown and short p99.9", float64(tr.Rate())/peak),
		Header: []string{"policy", "slowdown_p999", "short_p999", "long_p999", "drops"},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, shortLongRow([]string{p.Spec.Name}, p.Res))
	}
	t.Notes = append(t.Notes,
		"identical arrival trace for every policy; stealing is DARC's burst absorber (§3)")
	return []*Table{t}, nil
}

// ExtFanout quantifies the intro's motivation: a user query fans out
// to k backends and completes when the slowest shard answers, so
// per-shard tails compound as P(all fast) = P(fast)^k. We run one
// shard under each policy at 80% load (High Bimodal) and derive the
// query-level p99 for k = 1/10/100 shards from the measured shard
// latency distribution.
func ExtFanout(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.HighBimodal()
	const workers = 14
	const load = 0.80
	g := paperGrid(opt, mix, workers, specDARC(workers, len(mix.Types)), specCFCFS())
	g.Loads = []float64{load}
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	fanouts := []int{1, 10, 100}
	t := &Table{
		Name:   "ext_fanout",
		Title:  "fan-out amplification: query p99 end-to-end latency vs shard count (shards at 80% load, High Bimodal)",
		Header: []string{"policy"},
	}
	for _, k := range fanouts {
		t.Header = append(t.Header, fmt.Sprintf("k=%d_query_p99", k))
	}
	for _, p := range s.Points {
		row := []string{p.Spec.Name}
		// The fanned-out RPCs are the short class (the paper's §1
		// motivation: complex queries fanning out to hundreds of fast
		// backends while long analytics requests share the machines).
		hist := &p.Res.Recorder.Type(0).EndToEnd
		for _, k := range fanouts {
			// P(max of k ≤ x) = 0.99  ⇔  per-shard quantile 0.99^(1/k).
			q := math.Pow(0.99, 1/float64(k))
			row = append(row, fmtDur(hist.QuantileDuration(q)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"k=100 queries live at each shard's p99.99; protecting the per-shard deep tail is what fan-out services buy from DARC (paper §1)")
	noteStarved(t, s)
	return []*Table{t}, nil
}
