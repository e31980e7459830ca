package experiments

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Figure6 reproduces §5.4.3: TPC-C across Shenango, Shinjuku
// (multi-queue, 10µs quantum) and Perséphone, 14 workers.
func Figure6(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.TPCC()
	const workers = 14
	s, err := paperGrid(opt, mix, workers,
		column("shenango-cFCFS", "shenango"),
		column("shinjuku-MQ", "shinjuku-mq:10us"),
		column("DARC", "darc"),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure6", "TPC-C overall p99.9 slowdown vs load (paper Figure 6, first column)")

	// Per-transaction p99.9 latency: one row per (load, policy),
	// columns are the five transactions in Table 4 order.
	lat := &Table{
		Name:   "figure6_latency",
		Title:  "TPC-C per-transaction p99.9 latency (paper Figure 6, columns b-f)",
		Header: []string{"load", "policy"},
	}
	for _, ts := range mix.Types {
		lat.Header = append(lat.Header, ts.Name+"_p999")
	}
	for _, load := range s.Grid.Loads {
		for _, p := range s.Grid.Policies {
			row := []string{fmt.Sprintf("%.2f", load), p.Label}
			for ti := range mix.Types {
				row = append(row, fmtDur(s.at(p.Label, load).Res.Recorder.Type(ti).Latency.QuantileDuration(0.999)))
			}
			lat.Rows = append(lat.Rows, row)
		}
	}

	// Headline comparisons at 85% load (the paper's quoted operating
	// point): latency improvements for Payment/OrderStatus/NewOrder
	// over Shenango c-FCFS, and the overall slowdown reduction.
	cmpLoad := nearestLoad(opt.Loads, 0.85)
	d := s.at("DARC", cmpLoad).Res.Recorder
	she := s.at("shenango-cFCFS", cmpLoad).Res.Recorder
	shi := s.at("shinjuku-MQ", cmpLoad).Res.Recorder
	for _, name := range []string{"Payment", "OrderStatus", "NewOrder"} {
		ti := typeIndexByName(mix, name)
		dv := d.Type(ti).Latency.QuantileDuration(0.999)
		sv := she.Type(ti).Latency.QuantileDuration(0.999)
		curve.Notes = append(curve.Notes, fmt.Sprintf(
			"%s p999 at %.0f%% load: DARC %v vs Shenango %v (%.1fx; paper: 9.2x/7x/3.6x for the three)",
			name, cmpLoad*100, dv, sv, float64(sv)/float64(dv)))
	}
	ds := metrics.SlowdownAt(d.All(), 0.999)
	curve.Notes = append(curve.Notes,
		fmt.Sprintf("overall slowdown reduction vs Shenango at %.0f%%: %.1fx (paper: up to 4.6x)",
			cmpLoad*100, metrics.SlowdownAt(she.All(), 0.999)/ds),
		fmt.Sprintf("overall slowdown reduction vs Shinjuku at %.0f%%: %.1fx (paper: up to 3.1x)",
			cmpLoad*100, metrics.SlowdownAt(shi.All(), 0.999)/ds))
	target := 10.0
	darcLoad := s.sustainable("DARC", target)
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 10x slowdown target: DARC/Shenango = %.2fx (paper 1.2x), DARC/Shinjuku = %.2fx (paper 1.05x)",
		ratio(darcLoad, s.sustainable("shenango-cFCFS", target)),
		ratio(darcLoad, s.sustainable("shinjuku-MQ", target))))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// Figure8 reproduces §5.4.4: the RocksDB service (50% GET 1.5µs, 50%
// SCAN 635µs) across Shenango, Shinjuku (multi-queue, 15µs) and
// Perséphone.
func Figure8(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.RocksDB()
	const workers = 14
	s, err := paperGrid(opt, mix, workers,
		column("shenango-cFCFS", "shenango"),
		column("shinjuku-MQ", "shinjuku-mq:15us"),
		column("DARC", "darc"),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure8", "RocksDB p99.9 slowdown vs load (paper Figure 8)")
	lat := s.typedLatency("figure8_latency", "per-type p99.9 latency for Figure 8")
	target := 20.0
	she := s.sustainable("shenango-cFCFS", target)
	shi := s.sustainable("shinjuku-MQ", target)
	d := s.sustainable("DARC", target)
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 20x slowdown target: DARC/Shenango = %.2fx (paper 2.3x), DARC/Shinjuku = %.2fx (paper 1.3x)",
		ratio(d, she), ratio(d, shi)))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

func nearestLoad(loads []float64, want float64) float64 {
	best := loads[0]
	for _, l := range loads {
		if math.Abs(l-want) < math.Abs(best-want) {
			best = l
		}
	}
	return best
}
