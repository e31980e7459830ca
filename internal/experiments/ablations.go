package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// AblationDelta studies DARC's grouping factor δ on TPC-C at 85% load:
// small δ yields one group per type (more fractional rounding, risk of
// over-provisioning); huge δ collapses everything into one group
// (c-FCFS-like, no isolation). The paper's default (δ=3) reproduces
// its TPC-C grouping {Payment, OrderStatus} {NewOrder} {Delivery,
// StockLevel}.
func AblationDelta(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.TPCC()
	const workers = 14
	const load = 0.85
	deltas := []float64{1.01, 1.5, 2, 3, 5, 10, 1000}
	g := paperGrid(opt, mix, workers)
	g.Loads = []float64{load}
	for _, delta := range deltas {
		g.Policies = append(g.Policies, PolicySpec{Name: fmt.Sprintf("DARC(delta=%.2f)", delta), New: func(ctx RunCtx) cluster.Policy {
			cfg := darcConfigFor(workers, ctx)
			cfg.Delta = delta
			return policy.NewDARC(cfg, len(mix.Types), 0)
		}})
	}
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ablation_delta",
		Title:  "DARC grouping-factor sensitivity, TPC-C at 85% load",
		Header: []string{"delta", "groups", "slowdown_p999", "Payment_p999", "StockLevel_p999"},
	}
	for i, p := range s.Points {
		groups := 0
		if r := p.Policy.(*policy.DARC).Controller().Reservation(); r != nil {
			groups = len(r.Groups)
		}
		rec := p.Res.Recorder
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", deltas[i]),
			fmt.Sprintf("%d", groups),
			fmtSlow(metrics.SlowdownAt(rec.All(), 0.999)),
			fmtDur(rec.Type(0).Latency.QuantileDuration(0.999)),
			fmtDur(rec.Type(4).Latency.QuantileDuration(0.999)),
		})
	}
	t.Notes = append(t.Notes,
		"paper default delta=3 yields the §5.4.3 grouping {Payment,OrderStatus} {NewOrder} {Delivery,StockLevel}")
	noteStarved(t, s)
	return []*Table{t}, nil
}

// AblationStealing compares full DARC against DARC without cycle
// stealing (strict static partitioning) on both bimodal workloads at
// 95% load: without stealing, bursts of short requests overwhelm the
// small reserved set and the tail collapses — the §3 argument for
// selectively enabling work conservation.
func AblationStealing(opt Options) ([]*Table, error) {
	opt = opt.fill()
	const workers = 14
	const load = 0.95
	var grids []*Grid
	for _, mix := range []workload.Mix{workload.HighBimodal(), workload.ExtremeBimodal()} {
		g := paperGrid(opt, mix, workers, specDARC(workers, len(mix.Types)), specDARCNoSteal(workers, len(mix.Types)))
		g.Loads = []float64{load}
		grids = append(grids, g)
	}
	sweeps, err := runGrids(opt, grids...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "ablation_stealing",
		Title:  "cycle stealing ablation at 95% load (DARC vs strict static partitioning)",
		Header: []string{"workload", "variant", "slowdown_p999", "short_p999", "long_p999", "drops"},
	}
	for _, s := range sweeps {
		for _, p := range s.Points {
			t.Rows = append(t.Rows, shortLongRow([]string{s.Grid.Mix.Name, p.Spec.Name}, p.Res))
		}
	}
	t.Notes = append(t.Notes,
		"stealing lets shorts absorb bursts on longer groups' cores; without it the short group saturates its reservation")
	noteStarved(t, sweeps...)
	return []*Table{t}, nil
}

// shortLongRow appends a run's overall p99.9 slowdown, its first and
// second types' p99.9 latency and its drops to row.
func shortLongRow(row []string, res *cluster.Result) []string {
	rec := res.Recorder
	return append(row,
		fmtSlow(metrics.SlowdownAt(rec.All(), 0.999)),
		fmtDur(rec.Type(0).Latency.QuantileDuration(0.999)),
		fmtDur(rec.Type(1).Latency.QuantileDuration(0.999)),
		fmt.Sprintf("%d", res.Machine.Dropped()))
}
