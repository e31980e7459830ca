package frontend

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The live fan-out experiment (EXPERIMENTS.md "Live fan-out tier"):
// the same two-class mix served through 1–4 real backends behind the
// frontend, measured with the open-loop client, next to the
// internal/fanout discrete-event prediction; then hedging on/off with
// one backend stalled through the chaos injector. Skipped under
// -short — these runs sleep real wall-clock seconds.

// Services are sleep-scale (>= 1ms) so time.Sleep granularity does
// not swamp the shape.
const (
	expShort = time.Millisecond
	expLong  = 10 * time.Millisecond
)

func expMix() workload.Mix {
	return workload.Mix{
		Name: "frontend-bimodal",
		Types: []workload.TypeSpec{
			{Name: "short", Ratio: 0.95, Service: rng.Fixed(expShort)},
			{Name: "long", Ratio: 0.05, Service: rng.Fixed(expLong)},
		},
	}
}

// startExpBackends launches n identical 2-worker backends serving the
// experiment mix by sleeping.
func startExpBackends(t *testing.T, n int, prof *faults.Profile) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var p *faults.Profile
		if i == 0 {
			p = prof // fault profile, if any, goes to backend 0
		}
		_, us := newBackend(t, 2, &sleepHandler{serviceByType: []time.Duration{expShort, expLong}}, p)
		addrs = append(addrs, us.Addr().String())
	}
	return addrs
}

func runLiveFanout(t *testing.T, backends, fanOut int, hedge bool, prof *faults.Profile, rate float64, duration time.Duration) (*loadgen.Result, Stats) {
	t.Helper()
	addrs := startExpBackends(t, backends, prof)
	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      addrs,
		FanOut:        fanOut,
		QueryTimeout:  time.Second,
		Hedge:         hedge,
		HedgeAfterMin: 4 * expShort,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.RunUDP(fe.Addr().String(), loadgen.Config{
		Mix:      expMix(),
		Rate:     rate,
		Duration: duration,
		Seed:     42,
		Timeout:  3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	return res, fe.Stats()
}

func TestLiveFanoutExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment; skipped in -short")
	}
	duration := 3 * time.Second
	// Mean service 1.45ms on 2 workers -> ~1379 rps capacity per
	// backend; target ~35% sub-request load per backend.
	const perBackendRate = 480.0

	t.Run("scaling", func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 4} {
			k := min(n, 2)
			rate := perBackendRate * float64(n) / float64(k)
			res, st := runLiveFanout(t, n, k, false, nil, rate, duration)
			if res.Received == 0 {
				t.Fatalf("n=%d: no responses", n)
			}
			if un := st.SubUnaccounted(); un != 0 {
				t.Fatalf("n=%d: conservation violated, unaccounted=%d (%+v)", n, un, st)
			}
			if st.Strays != 0 {
				t.Errorf("n=%d: %d stray replies in a no-fault run", n, st.Strays)
			}

			sim, err := fanout.Run(fanout.Config{
				Backends:          n,
				FanOut:            k,
				WorkersPerBackend: 2,
				Mix:               expMix(),
				ShardLoad:         0.35,
				Duration:          duration,
				WarmupFraction:    0.1,
				Seed:              42,
				NewPolicy:         func() cluster.Policy { return policy.NewCFCFS(4096) },
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("n=%d k=%d rate=%.0f | live: queries=%d p50=%v p99=%v p999=%v | sim: queries=%d p50=%v p99=%v p999=%v",
				n, k, rate,
				res.Received, res.Overall.QuantileDuration(0.50), res.Overall.QuantileDuration(0.99), res.Overall.QuantileDuration(0.999),
				sim.Queries, sim.QueryLatency.QuantileDuration(0.50), sim.QueryLatency.QuantileDuration(0.99), sim.QueryLatency.QuantileDuration(0.999))

			// Loose shape check against the simulator: both agree a
			// query cannot beat one short service time, and the live
			// median stays within sleep-granularity slack of the sim's.
			if p50 := res.Overall.QuantileDuration(0.50); p50 < expShort {
				t.Errorf("n=%d: live p50 %v below the service floor %v", n, p50, expShort)
			}
		}
	})

	t.Run("hedging", func(t *testing.T) {
		// One of two backends stalls worker 0 on every request through
		// the chaos injector; fan-out 1 so half the queries land on it.
		// The stall is sized well above this host's scheduler noise
		// (single-CPU containers add a multi-ms latency floor to every
		// goroutine handoff) so the hedging effect is unambiguous.
		const stall = 200 * time.Millisecond
		prof := &faults.Profile{Seed: 7, StallWorker: 0, StallDuration: stall}
		rate := perBackendRate
		off, offSt := runLiveFanout(t, 2, 1, false, prof, rate, duration)
		on, onSt := runLiveFanout(t, 2, 1, true, prof, rate, duration)
		t.Logf("hedging off: p50=%v p99=%v p999=%v hedges=%d",
			off.Overall.QuantileDuration(0.50), off.Overall.QuantileDuration(0.99), off.Overall.QuantileDuration(0.999), offSt.Hedges)
		t.Logf("hedging on:  p50=%v p99=%v p999=%v hedges=%d wins=%d hedged-queries=%d",
			on.Overall.QuantileDuration(0.50), on.Overall.QuantileDuration(0.99), on.Overall.QuantileDuration(0.999), onSt.Hedges, onSt.HedgeWins, on.Hedged)
		if offSt.Hedges != 0 {
			t.Fatalf("hedging-off run issued %d hedges", offSt.Hedges)
		}
		if onSt.Hedges == 0 || onSt.HedgeWins == 0 {
			t.Fatalf("hedging-on run: hedges=%d wins=%d", onSt.Hedges, onSt.HedgeWins)
		}
		offP999 := off.Overall.QuantileDuration(0.999)
		onP999 := on.Overall.QuantileDuration(0.999)
		// The stalled worker pins the hedging-off tail at >= the stall;
		// hedges must pull the p99.9 measurably below it.
		if offP999 < stall {
			t.Fatalf("hedging-off p99.9 %v below the injected %v stall — experiment not exercising the fault", offP999, stall)
		}
		if onP999 >= offP999/2 {
			t.Fatalf("hedging did not measurably improve p99.9: on=%v off=%v", onP999, offP999)
		}
	})
}
