package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// darcCPUWaste estimates the paper's "average CPU waste" for a DARC
// run: the idle fraction summed over cores reserved for groups other
// than the longest one (the cores deliberately left idle to protect
// short requests).
func darcCPUWaste(res *cluster.Result, reservation *darc.Reservation) float64 {
	if reservation == nil || len(reservation.Groups) < 2 {
		return 0
	}
	waste := 0.0
	for gi := 0; gi < len(reservation.Groups)-1; gi++ {
		for _, w := range reservation.Groups[gi].Reserved {
			if w < len(res.WorkerBusy) {
				waste += 1 - res.WorkerBusy[w]
			}
		}
	}
	return waste
}

// Figure1 reproduces the §2 motivation simulation: 16 workers, Extreme
// Bimodal, no network, d-FCFS vs c-FCFS vs TS(q=5µs,c=1µs) vs DARC.
func Figure1(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.ExtremeBimodal()
	const workers = 16
	g := paperGrid(opt, mix, workers,
		column("d-FCFS", "dfcfs"),
		column("c-FCFS", "cfcfs"),
		column("TS", "shinjuku-sq"),
		column("DARC", "darc"),
	)
	g.RTT = 0 // §2 models no network
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure1", "p99.9 slowdown vs load, Extreme Bimodal, 16 workers (paper Figure 1)")
	lat := s.typedLatency("figure1_latency", "per-type p99.9 latency for Figure 1")

	peak := mix.PeakLoad(workers)
	for _, p := range g.Policies {
		sustain := s.sustainable(p.Label, 10)
		curve.Notes = append(curve.Notes, fmt.Sprintf(
			"%s sustains %.2f of peak (%.2f Mrps) at 10x p99.9 slowdown (paper: c-FCFS 2.1, TS 3.7, DARC 5.1 Mrps)",
			p.Label, sustain, sustain*peak/1e6))
	}
	// §2's headline short-request tail latencies at DARC's operating
	// point.
	maxLoad := s.maxLoad()
	for _, p := range g.Policies {
		curve.Notes = append(curve.Notes, fmt.Sprintf(
			"%s short p99.9 at %.0f%% load: %v (paper at 5.1 Mrps: DARC 9.87us, c-FCFS 7738us, TS 161us)",
			p.Label, maxLoad*100, s.at(p.Label, maxLoad).Res.Recorder.Type(0).Latency.QuantileDuration(0.999)))
	}
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// Figure3 reproduces §5.2: DARC vs c-FCFS vs d-FCFS inside Perséphone
// on High Bimodal, 14 workers, 10µs network RTT.
func Figure3(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.HighBimodal()
	const workers = 14
	s, err := paperGrid(opt, mix, workers, column("DARC", "darc"), column("c-FCFS", "cfcfs"), column("d-FCFS", "dfcfs")).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure3", "p99.9 slowdown vs load, High Bimodal in Persephone (paper Figure 3)")
	lat := s.typedLatency("figure3_latency", "per-type p99.9 latency for Figure 3")

	// "Up to" improvement factor across the sweep, as the paper quotes
	// (15.7x over c-FCFS at a 4.2x cost to long requests).
	bestGain, bestLoad, costAtBest := 0.0, 0.0, 0.0
	for _, load := range s.Grid.Loads {
		d := s.at("DARC", load).Res.Recorder
		c := s.at("c-FCFS", load).Res.Recorder
		ds := metrics.SlowdownAt(d.All(), 0.999)
		cs := metrics.SlowdownAt(c.All(), 0.999)
		if ds > 0 && cs/ds > bestGain {
			bestGain = cs / ds
			bestLoad = load
			dl := d.Type(1).Latency.QuantileDuration(0.999)
			cl := c.Type(1).Latency.QuantileDuration(0.999)
			costAtBest = float64(dl) / float64(cl)
		}
	}
	if bestGain > 0 {
		curve.Notes = append(curve.Notes, fmt.Sprintf(
			"DARC improves overall slowdown up to %.1fx over c-FCFS (at %.0f%% load; paper: up to 15.7x), long p999 cost there %.1fx (paper: up to 4.2x)",
			bestGain, bestLoad*100, costAtBest))
	}
	// CPU waste at the highest load (paper: 1 reserved core, 0.86
	// cores of waste on High Bimodal), from the swept DARC instance's
	// final reservation.
	d := s.at("DARC", s.maxLoad())
	if res := d.Policy.(*policy.DARC).Controller().Reservation(); res != nil {
		curve.Notes = append(curve.Notes, fmt.Sprintf(
			"DARC reserved %d core(s) for shorts; CPU waste %.2f cores (paper: 1 core, 0.86 waste)",
			len(res.Groups[0].Reserved), darcCPUWaste(d.Res, res)))
	}
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// Figure4 reproduces §5.3: manually sweeping DARC-static's reserved
// cores from 0..workers at 90% load on both bimodal workloads.
func Figure4(opt Options) ([]*Table, error) {
	opt = opt.fill()
	const workers = 14
	// The paper runs this at "95% load"; with exact service times that
	// leaves the long class infinitesimally unstable for any reserved
	// core, so we operate at 90% where the parabola the paper shows
	// (too few cores → shorts blocked, too many → longs starved) is
	// well defined. Queues are unbounded here: shedding would flatter
	// the starved configurations.
	const load = 0.90
	var grids []*Grid
	for _, mix := range []workload.Mix{workload.HighBimodal(), workload.ExtremeBimodal()} {
		g := paperGrid(opt, mix, workers)
		g.Loads = []float64{load}
		for r := 0; r <= workers; r++ {
			spec := fmt.Sprintf("darc-static:%d", r)
			g.Policies = append(g.Policies, column(fmt.Sprintf("DARC-static(%d)", r), spec).with(unbounded))
		}
		grids = append(grids, g)
	}
	sweeps, err := runGrids(opt, grids...)
	if err != nil {
		return nil, err
	}
	high, extreme := sweeps[0].Points, sweeps[1].Points
	slow := func(p Point) float64 { return metrics.SlowdownAt(p.Res.Recorder.All(), 0.999) }
	render := func(p Point) string {
		if len(p.Starved) > 0 {
			return "starved"
		}
		return fmtSlow(slow(p))
	}
	better := func(a, b Point) bool {
		if sa, sb := len(a.Starved) > 0, len(b.Starved) > 0; sa != sb {
			return !sa
		}
		return slow(a) < slow(b)
	}
	t := &Table{
		Name:   "figure4",
		Title:  "DARC-static: p99.9 slowdown vs reserved cores at 90% load (paper Figure 4, 95%)",
		Header: []string{"reserved_cores", "HighBimodal_slowdown", "ExtremeBimodal_slowdown"},
	}
	bestHigh, bestExtreme := 0, 0
	for r := 0; r <= workers; r++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", r), render(high[r]), render(extreme[r])})
		if better(high[r], high[bestHigh]) {
			bestHigh = r
		}
		if better(extreme[r], extreme[bestExtreme]) {
			bestExtreme = r
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("best High Bimodal reservation: %d cores (paper: 1)", bestHigh),
		fmt.Sprintf("best Extreme Bimodal reservation: %d cores (paper: 2)", bestExtreme))
	return []*Table{t}, nil
}

// unbounded lifts DARC-static's queue bound: Figure 4's right side
// starves long requests, and load shedding would otherwise flatter the
// starved configurations (survivors look fast).
func unbounded(p cluster.Policy, _ policy.Streams) cluster.Policy {
	p.(*policy.DARCStatic).SetQueueCap(-1)
	return p
}

// Figure5a reproduces §5.4.1: High Bimodal across Shenango (d-FCFS and
// work stealing), Shinjuku (multi-queue, 5µs) and Perséphone (DARC).
// Shenango with stealing off is d-FCFS, so its column is Figure 3's.
func Figure5a(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.HighBimodal()
	const workers = 14
	s, err := paperGrid(opt, mix, workers,
		column("shenango-dFCFS", "dfcfs"),
		column("shenango-cFCFS", "shenango"),
		column("shinjuku-MQ", "shinjuku-mq"),
		column("DARC", "darc"),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure5a", "High Bimodal across systems (paper Figure 5a)")
	lat := s.typedLatency("figure5a_latency", "per-type p99.9 latency for Figure 5a")
	target := 20.0
	she := s.sustainable("shenango-cFCFS", target)
	shi := s.sustainable("shinjuku-MQ", target)
	d := s.sustainable("DARC", target)
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 20x slowdown target: DARC/Shenango = %.2fx (paper 2.35x), DARC/Shinjuku = %.2fx (paper 1.3x)",
		ratio(d, she), ratio(d, shi)))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// Figure5b reproduces §5.4.2: Extreme Bimodal across Shenango,
// Shinjuku (single queue, 5µs) and Perséphone.
func Figure5b(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.ExtremeBimodal()
	const workers = 14
	s, err := paperGrid(opt, mix, workers,
		column("shenango-cFCFS", "shenango"),
		column("shinjuku-SQ", "shinjuku-sq"),
		column("DARC", "darc"),
	).run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure5b", "Extreme Bimodal across systems (paper Figure 5b)")
	lat := s.typedLatency("figure5b_latency", "per-type p99.9 latency for Figure 5b")
	target := 50.0
	she := s.sustainable("shenango-cFCFS", target)
	shi := s.sustainable("shinjuku-SQ", target)
	d := s.sustainable("DARC", target)
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 50x slowdown target: DARC/Shenango = %.2fx (paper 1.4x), DARC/Shinjuku = %.2fx (paper 1.25x)",
		ratio(d, she), ratio(d, shi)))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

// Figure10 reproduces §6's preemption-overhead study: single-queue
// preemptive systems with 0/1/2/4µs total preemption overhead
// (half propagation, half preemption cost) vs DARC on Extreme Bimodal,
// 16 workers, no network.
func Figure10(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.ExtremeBimodal()
	const workers = 16
	g := paperGrid(opt, mix, workers,
		column("TS-0us", "ts-ideal"),
		column("TS-1us", "ts-ideal:1us"),
		column("TS-2us", "ts-ideal:2us"),
		column("TS-4us", "ts-ideal:4us"),
		column("DARC", "darc"),
	)
	g.RTT = 0
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	curve := s.slowdownCurve("figure10", "preemption overhead study, Extreme Bimodal, 16 workers (paper Figure 10)")
	lat := s.typedLatency("figure10_latency", "per-type p99.9 latency for Figure 10")
	curve.Notes = append(curve.Notes, fmt.Sprintf(
		"at 10x slowdown: TS-0us sustains %.2f, TS-1us %.2f (paper: ~30%% less than ideal), DARC %.2f",
		s.sustainable("TS-0us", 10), s.sustainable("TS-1us", 10), s.sustainable("DARC", 10)))
	noteStarved(curve, s)
	return []*Table{curve, lat}, nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
