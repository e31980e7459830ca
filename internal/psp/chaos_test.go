package psp_test

// End-to-end chaos tests: the live runtime under a seeded fault
// profile (ISSUE: 10% ingress drop + one stalled worker), driven over
// real UDP by the retrying open-loop client. They assert the system
// neither deadlocks nor loses requests — every submitted request ends
// as a completion, an explicit drop, or an explicit timeout — and that
// DARC's short-request tail survives the faults better than c-FCFS
// (the paper's §5 shape claim).

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/conformance"
	"repro/internal/darc"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
	"repro/internal/spin"
	"repro/internal/workload"
)

// chaosProfile is the ISSUE's scenario: 10% packet drop plus one
// stalled worker.
func chaosProfile() *faults.Profile {
	return &faults.Profile{
		Seed:          7,
		DropRate:      0.10,
		StallWorker:   2,
		StallDuration: 200 * time.Microsecond,
	}
}

// runChaos drives one server under the chaos profile and returns the
// client result plus server stats. Service times are slept, not spun:
// CI machines may expose a single CPU, and sleeping workers still
// overlap there, so the DARC-vs-FCFS comparison measures scheduling
// rather than host-core contention. A watchdog converts a hang into a
// test failure instead of a suite timeout.
func runChaos(t *testing.T, mode sched.Kind) (*loadgen.Result, psp.Stats) {
	t.Helper()

	const shortSvc, longSvc = 500 * time.Microsecond, 20 * time.Millisecond
	dcfg := darc.DefaultConfig(3)
	dcfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    3,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			if typ == 0 {
				time.Sleep(shortSvc)
			} else {
				time.Sleep(longSvc)
			}
			return copy(r, p), proto.StatusOK
		}),
		Policy: sched.Spec{Kind: mode},
		DARC:   dcfg,
		Faults: chaosProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := psp.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	// Warm the profiler with sequential calls so DARC has installed a
	// reservation before measured load arrives; run the same warmup in
	// c-FCFS mode so both recorders hold identical extra samples.
	for i := 0; i < 80; i++ {
		typ := byte(0)
		if i%8 == 7 {
			typ = 1
		}
		if _, err := srv.Call([]byte{typ, 0, byte(i)}); err != nil {
			t.Fatalf("warmup call %d: %v", i, err)
		}
	}
	if mode == sched.KindDARC && srv.Controller().Reservation() == nil {
		t.Fatal("no reservation after warmup")
	}

	duration := 600 * time.Millisecond
	if testing.Short() {
		duration = 250 * time.Millisecond
	}
	type outcome struct {
		res *loadgen.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := loadgen.RunUDP(u.Addr().String(), loadgen.Config{
			Mix:            workload.TwoType("short", shortSvc, 0.9, "long", longSvc),
			Rate:           500,
			Duration:       duration,
			Seed:           21,
			Timeout:        3 * time.Second,
			RequestTimeout: 150 * time.Millisecond,
			MaxRetries:     5,
			RetryBackoff:   2 * time.Millisecond,
		})
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("%v chaos run deadlocked", mode)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	// Stop before snapshotting so the trace rings are fully drained and
	// the span-conservation invariant below is exact.
	u.Close()
	st := srv.StatsSnapshot()
	// Lifecycle-span conservation: every dispatched request either
	// produced a span (drained or lost to a full ring) or died with a
	// crashing worker. This must hold under the full fault profile.
	if st.TraceSpans+st.TraceLost+st.WorkerRestarts != st.Dispatched {
		t.Fatalf("span conservation: spans %d + lost %d + crashes %d != dispatched %d",
			st.TraceSpans, st.TraceLost, st.WorkerRestarts, st.Dispatched)
	}
	if st.TraceSpans == 0 {
		t.Fatal("tracing on by default recorded no spans")
	}
	return out.res, st
}

func TestChaosNoLostCompletions(t *testing.T) {
	for _, mode := range []sched.Kind{sched.KindDARC, sched.KindCFCFS} {
		m, _ := sched.Spec{Kind: mode}.Mode()
		t.Run(m.String(), func(t *testing.T) {
			res, st := runChaos(t, mode)
			t.Logf("%v: %v", mode, res)
			if res.Sent == 0 {
				t.Fatal("nothing sent")
			}
			// Zero unaccounted requests: completions + drops + timeouts
			// must cover every submission.
			if un := res.Unaccounted(); un != 0 {
				t.Fatalf("%d requests unaccounted for: %v", un, res)
			}
			// Retries must recover nearly everything 10% drop took: the
			// odds of six consecutive drops are ~1e-6.
			if res.Received < res.Sent*9/10 {
				t.Fatalf("received %d of %d despite retries", res.Received, res.Sent)
			}
			if res.Retries == 0 {
				t.Fatal("no retries under 10% drop")
			}
			if st.RetriesSeen == 0 {
				t.Fatal("server observed no retransmissions")
			}
			if st.FaultsInjected == 0 {
				t.Fatal("no faults injected")
			}
		})
	}
}

// TestChaosDARCBeatsCFCFSShortTail asserts the §5 shape claim survives
// the fault profile: the short type's tail sojourn under DARC stays
// below c-FCFS's. Sojourn (server-side) isolates the scheduler from
// client retransmission delay, which the drop fault inflicts on both
// modes equally.
//
// The comparison borrows the conformance comparator's band discipline
// instead of demanding a strict inequality on a noisy quantile: a
// clean directional win on any attempt settles the claim immediately,
// and otherwise DARC must at least tie within a seeded tolerance band
// — only a tail sitting above c-FCFS's beyond the band on every
// attempt is a regression. Under -short (the race job) the run yields
// ~10^2 short completions, where a p99 is the sample maximum; the
// check drops to the p50 there rather than skipping outright.
func TestChaosDARCBeatsCFCFSShortTail(t *testing.T) {
	quantile, band := "p99", conformance.Band{Rel: 0.25, Abs: 3 * time.Millisecond}
	pick := func(s metrics.Summary) time.Duration { return s.P99 }
	if testing.Short() {
		// The short run cannot resolve a p99; the median still orders
		// the two policies (c-FCFS's short requests queue behind 20ms
		// longs at every depth, not just the tail), with a wider band
		// for the race detector's scheduling jitter.
		quantile, band = "p50", conformance.Band{Rel: 0.50, Abs: 5 * time.Millisecond}
		pick = func(s metrics.Summary) time.Duration { return s.P50 }
	}
	const attempts = 3
	var darcQ, fcfsQ time.Duration
	for a := 1; a <= attempts; a++ {
		_, darcStats := runChaos(t, sched.KindDARC)
		_, fcfsStats := runChaos(t, sched.KindCFCFS)
		if darcStats.Summaries[0].Completed == 0 || fcfsStats.Summaries[0].Completed == 0 {
			t.Fatal("no short completions recorded")
		}
		darcQ = pick(darcStats.Summaries[0])
		fcfsQ = pick(fcfsStats.Summaries[0])
		t.Logf("attempt %d short %s: DARC %v vs c-FCFS %v", a, quantile, darcQ, fcfsQ)
		if darcQ <= fcfsQ {
			return
		}
	}
	// No directional win: a statistical tie (DARC within the band of
	// c-FCFS) is not evidence of regression, anything beyond it is.
	if !band.Allows(fcfsQ, darcQ) {
		t.Fatalf("short %s under DARC (%v) above c-FCFS (%v) beyond band (rel %.2f, abs %v) in %d attempts",
			quantile, darcQ, fcfsQ, band.Rel, band.Abs, attempts)
	}
}

// TestChaosWorkerCrashRespawn exercises crash-then-respawn: crashed
// workers answer their in-flight request as dropped, stay down for the
// respawn delay, and come back; nothing hangs and every call returns.
func TestChaosWorkerCrashRespawn(t *testing.T) {
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC: func() darc.Config {
			c := darc.DefaultConfig(2)
			c.MinWindowSamples = 64
			return c
		}(),
		Faults: &faults.Profile{Seed: 11, CrashRate: 0.05, RespawnDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	const n = 400
	ok, droppedCount := 0, 0
	for i := 0; i < n; i++ {
		resp, err := srv.Call([]byte{0, 0, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case proto.StatusOK:
			ok++
		case proto.StatusDropped:
			droppedCount++
		default:
			t.Fatalf("status %v", resp.Status)
		}
	}
	if ok+droppedCount != n {
		t.Fatalf("outcomes %d, want %d", ok+droppedCount, n)
	}
	st := srv.StatsSnapshot()
	if st.WorkerRestarts == 0 {
		t.Fatal("no worker restarts at 5% crash rate over 400 requests")
	}
	if got := srv.Injector().Counts().Crashes; got != st.WorkerRestarts {
		t.Fatalf("restart counter %d != injected crashes %d", st.WorkerRestarts, got)
	}
	if droppedCount == 0 {
		t.Fatal("crashes produced no dropped responses")
	}
	// The pipeline still serves after every crash.
	resp, err := srv.Call([]byte{0, 0, 0xFF})
	if err != nil || (resp.Status != proto.StatusOK && resp.Status != proto.StatusDropped) {
		t.Fatalf("post-chaos call: %v %v", resp, err)
	}
}

// TestChaosReservationDelay checks that a laggy control plane delays
// but does not prevent DARC reservation installation.
func TestChaosReservationDelay(t *testing.T) {
	spin.Calibrate(10 * time.Millisecond)
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			spin.For(10 * time.Microsecond)
			return copy(r, p), proto.StatusOK
		}),
		DARC: func() darc.Config {
			c := darc.DefaultConfig(2)
			c.MinWindowSamples = 64
			return c
		}(),
		Faults: &faults.Profile{Seed: 3, ReservationDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	deadline := time.Now().Add(5 * time.Second)
	payload := []byte{0, 0, 1}
	for srv.Controller().Reservation() == nil {
		if time.Now().After(deadline) {
			t.Fatal("reservation never installed under 20ms delay")
		}
		if _, err := srv.Call(payload); err != nil {
			t.Fatal(err)
		}
		payload[0] ^= 1 // alternate the two types
	}
	if srv.StatsSnapshot().Updates == 0 {
		t.Fatal("no reservation updates counted")
	}
}
