package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	persephone "repro"
)

// simPoint is one Simulate call of the batch. The simulated durations
// are sized so that each point takes about 0.3 s of wall time where the
// benchmark was calibrated (a round about 1.5 s, 2.7 M requests).
type simPoint struct {
	key      string
	mix      func() persephone.Mix
	policy   string
	workers  int
	load     float64
	duration time.Duration
}

var simPoints = []simPoint{
	{"eb-darc", persephone.ExtremeBimodal, "darc", 16, 0.90, 120 * time.Millisecond},
	{"eb-cfcfs", persephone.ExtremeBimodal, "cfcfs", 16, 0.90, 170 * time.Millisecond},
	{"tpcc-darc", persephone.TPCC, "darc", 14, 0.85, 750 * time.Millisecond},
	{"hb-shinjuku-mq", persephone.HighBimodal, "shinjuku-mq", 14, 0.70, 750 * time.Millisecond},
	{"rocksdb-darc", persephone.RocksDB, "darc", 14, 0.80, 16 * time.Second},
}

// defaultSeed is the seed the golden results were recorded at.
const defaultSeed = 1

// simGolden pins what the simulator computes at defaultSeed, per point.
type simGolden struct {
	Completed       uint64
	Dropped         uint64
	OverallSlowdown float64
}

//go:embed testdata/sim_golden.json
var simGoldenJSON []byte

// simulate runs one point. scale shrinks the simulated duration for the
// warm-up batch; round varies the seed between rounds of one run.
func (p simPoint) simulate(seed int64, round int, scale float64) (*persephone.SimResult, time.Duration, error) {
	start := time.Now()
	res, err := persephone.Simulate(persephone.SimConfig{
		Workers:      p.workers,
		Mix:          p.mix(),
		Policy:       p.policy,
		LoadFraction: p.load,
		Duration:     time.Duration(float64(p.duration) * scale),
		Seed:         uint64(seed) + 1 + uint64(round)*1000003, // never 0, which Simulate reads as "default"
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.key, err)
	}
	return res, time.Since(start), nil
}

// simRound0 runs every point once at the seed itself: the results the
// golden file and the policy-ordering check look at.
func simRound0(seed int64, scale float64) (map[string]simGolden, error) {
	out := map[string]simGolden{}
	for _, p := range simPoints {
		res, _, err := p.simulate(seed, 0, scale)
		if err != nil {
			return nil, err
		}
		out[p.key] = simGolden{res.Completed, res.Dropped, res.OverallSlowdown}
	}
	return out, nil
}

// checkSim returns what is wrong with round 0's results: DARC must beat
// c-FCFS on ExtremeBimodal at any seed, and at the default seed every
// point must reproduce the golden file.
func checkSim(seed int64, got map[string]simGolden) []error {
	var errs []error
	if d, c := got["eb-darc"].OverallSlowdown, got["eb-cfcfs"].OverallSlowdown; !(d < c) {
		errs = append(errs, fmt.Errorf("sim: ExtremeBimodal DARC slowdown %.2f is not below c-FCFS %.2f", d, c))
	}
	if seed != defaultSeed {
		return errs
	}
	var want map[string]simGolden
	if err := json.Unmarshal(simGoldenJSON, &want); err != nil {
		return append(errs, fmt.Errorf("sim golden: %w", err))
	}
	for _, p := range simPoints {
		if got[p.key] != want[p.key] {
			errs = append(errs, fmt.Errorf("sim: %s = %+v, golden %+v", p.key, got[p.key], want[p.key]))
		}
	}
	return errs
}

// runSim measures the batch: rounds of all five points until seconds
// have passed. Each rate is computed per round and reported as the
// median across rounds.
func runSim(seed int64, seconds, setups int) (*measurement, error) {
	res := &measurement{e2e: metricSet{}, layers: metricSet{}}

	// Set-up: a quarter-size batch, which grows the heap to working size.
	var setup []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if _, err := simRound0(seed, 0.25); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	res.e2e["setup_s"] = median(setup)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round0 := map[string]simGolden{}
	rate := map[string][]float64{}
	var goodput []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < time.Duration(seconds)*time.Second; round++ {
		var reqs float64
		var wall time.Duration
		for _, p := range simPoints {
			r, took, err := p.simulate(seed, round, 1)
			if err != nil {
				return nil, err
			}
			if round == 0 {
				round0[p.key] = simGolden{r.Completed, r.Dropped, r.OverallSlowdown}
			}
			res.attempted += int64(r.Completed + r.Dropped)
			res.failed += int64(r.Dropped)
			rate[p.key] = append(rate[p.key], float64(r.Completed)/took.Seconds())
			reqs += float64(r.Completed)
			wall += took
		}
		goodput = append(goodput, reqs/wall.Seconds())
		res.windows++
	}
	runtime.ReadMemStats(&after)
	res.errs = checkSim(seed, round0)

	res.e2e["goodput_rps"] = median(goodput)
	for _, p := range simPoints {
		res.layers["sim.req_per_s."+p.key] = median(rate[p.key])
	}
	// No client waits on the simulator, so the three latency slots carry
	// the wall-clock cost of a thousand simulated requests on three named
	// points; a point that slows cannot hide in the batch total.
	perK := func(key string) float64 { return 1e9 / res.layers["sim.req_per_s."+key] }
	res.e2e["short_p50_us"] = perK("eb-darc")
	res.e2e["short_p99_us"] = perK("eb-cfcfs")
	res.e2e["long_p99_us"] = perK("rocksdb-darc")
	res.layers["sim.mallocs_per_req"] = float64(after.Mallocs-before.Mallocs) / float64(res.attempted)
	res.layers["client.fail_share"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}
