package conformance

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/loadgen"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// liveWarmupCalls primes the live server before the replay: DARC's
	// profiler needs completions to leave its c-FCFS startup window,
	// and every policy benefits from warmed scheduler state so the
	// replay spans measure steady behaviour.
	liveWarmupCalls = 120
	// liveMinWindow is the live DARC profiling window; liveWarmupCalls
	// comfortably exceeds it so the first reservation installs before
	// the replay starts.
	liveMinWindow = 96
	// liveSettle separates the warmup from the replay so in-flight
	// warmup work fully drains before the cutoff is stamped.
	liveSettle = 50 * time.Millisecond
	// liveTraceCap sizes the per-worker span rings so an entire
	// conformance run fits without a mid-run drain (spans are only
	// flushed at the end; a lost span would break exact conservation).
	liveTraceCap = 1 << 14

	// sleepTickComp compensates time.Sleep's timer-tick overshoot. On
	// the CI hosts this harness targets, a sleep lands uniformly 0–2ms
	// past its deadline regardless of duration; shaving the expected
	// overshoot off every multi-millisecond sleep centres the realised
	// service time on the trace's recorded demand instead of biasing it
	// long (which would inflate utilisation and DARC's profiled means
	// relative to the simulator).
	sleepTickComp = time.Millisecond
)

// sleepService realises one service demand, compensating the timer
// tick for durations where the correction cannot go negative-dominant.
func sleepService(svc time.Duration) {
	if svc >= 3*time.Millisecond {
		svc -= sleepTickComp
	}
	if svc > 0 {
		time.Sleep(svc)
	}
}

// ResUpdate is one reservation installation observed on the live
// server, stamped on the span clock (offset since server start).
type ResUpdate struct {
	At  time.Duration
	Res *darc.Reservation
}

// LiveRun is the live-server half of one differential comparison.
type LiveRun struct {
	Policy string
	// Spans are the replay's lifecycle spans (warmup excluded).
	Spans []trace.Span
	// WarmupSpans counts spans attributed to the warmup phase.
	WarmupSpans int
	// Result is the replay client's accounting.
	Result *loadgen.Result
	// Reservations is the DARC reservation timeline.
	Reservations []ResUpdate
	// ReservationAtReplay reports whether a reservation was installed
	// before the replay began (required under a declared darc policy).
	ReservationAtReplay bool
	// ReplayStart is the span-clock offset at which the replay began;
	// spans before it belong to the warmup.
	ReplayStart time.Duration
	// TraceLost counts spans dropped by full trace rings (must be 0
	// for exact conservation).
	TraceLost uint64
	// NumTypes, StaticReserved and ShortType echo the run parameters
	// the comparator needs.
	NumTypes       int
	StaticReserved int
	ShortType      int
	// AdmissionBudget echoes the case's *declared* uniform admission
	// budget (zero when the case declares no admission control) — set
	// even when a mutation quietly disabled the controller, since the
	// comparator checks the declaration, not the implementation.
	AdmissionBudget time.Duration
	// AdmissionShed is the admission controller's total refused count
	// (zero when the controller is absent).
	AdmissionShed uint64
}

// liveConfig builds the psp.Config for a declared policy, then lets
// the mutation perturb it.
func liveConfig(spec TraceSpec, numTypes int, policyName string, seed uint64, mut *Mutation) (psp.Config, error) {
	var cl classify.Classifier = classify.Field{Offset: 0, Types: numTypes}
	if mut != nil && mut.flipClassifier {
		field := classify.Field{Offset: 0, Types: numTypes}
		short, long := shortLongTypes(spec)
		cl = classify.Func{
			Types: numTypes,
			Label: "flipped",
			F: func(p []byte) int {
				t := field.Classify(p)
				switch t {
				case short:
					return long
				case long:
					return short
				}
				return t
			},
		}
	}
	cfg := psp.Config{
		Workers:    spec.Workers,
		Classifier: cl,
		// The handler reproduces the trace's recorded cost by sleeping
		// the payload-encoded service demand. Sleeping (not spinning)
		// matters: CI runners are oversubscribed and spinning workers
		// would starve the dispatcher (see chaos_test.go).
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			if svc, ok := loadgen.ReplayService(p); ok {
				sleepService(svc)
			}
			return copy(r, p[:min(len(p), len(r))]), proto.StatusOK
		}),
		TraceCap: liveTraceCap,
	}
	switch policyName {
	case "darc":
		cfg.Mode = psp.ModeDARC
		dcfg := darc.DefaultConfig(spec.Workers)
		dcfg.MinWindowSamples = liveMinWindow
		cfg.DARC = dcfg
	case "darc-static":
		cfg.Mode = psp.ModeDARCStatic
		cfg.StaticMeans = spec.means()
		cfg.StaticReserved = spec.StaticReserved
	case "cfcfs":
		cfg.Mode = psp.ModeCFCFS
	case "dfcfs":
		cfg.Mode = psp.ModeDFCFS
		cfg.SteerSeed = seed | 1
	default:
		return psp.Config{}, fmt.Errorf("conformance: unknown policy %q", policyName)
	}
	if mut != nil {
		if mut.admissionBudget > 0 && !mut.disableAdmission {
			budgets := make([]time.Duration, numTypes)
			for i := range budgets {
				budgets[i] = mut.admissionBudget
			}
			cfg.Admission = &admission.Config{Budgets: budgets, UnknownBudget: mut.admissionBudget}
		}
		if mut.mode != nil {
			cfg.Mode = *mut.mode
		}
		if mut.staticReserved != nil {
			cfg.StaticReserved = *mut.staticReserved
		}
		if mut.faults != nil {
			cfg.Faults = mut.faults
		}
	}
	return cfg, nil
}

// shortLongTypes reports the type indices with the smallest and
// largest mean service times.
func shortLongTypes(spec TraceSpec) (short, long int) {
	for i, t := range spec.Mix.Types {
		if t.Service.Mean() < spec.Mix.Types[short].Service.Mean() {
			short = i
		}
		if t.Service.Mean() > spec.Mix.Types[long].Service.Mean() {
			long = i
		}
	}
	return short, long
}

// RunLive replays the trace against an in-process UDP server running
// the declared policy (optionally perturbed by mut) and captures the
// comparator's live-side inputs: replay spans, client accounting and
// the reservation timeline.
func RunLive(spec TraceSpec, tr *trace.Trace, policyName string, seed uint64, mut *Mutation) (*LiveRun, error) {
	return runLive(spec, tr, policyName, seed, mut, nil)
}

// RunLiveDuring is RunLive plus a concurrent mid-replay hook: when the
// replay starts, during(srv) runs on its own goroutine against the
// live server, and the harness waits for it to return before
// snapshotting. The reconfig-mid-trace conformance test uses it to
// issue benign live reconfigurations while the trace replays — the
// comparator must not be able to tell.
func RunLiveDuring(spec TraceSpec, tr *trace.Trace, policyName string, seed uint64, during func(*psp.Server)) (*LiveRun, error) {
	return runLive(spec, tr, policyName, seed, nil, during)
}

func runLive(spec TraceSpec, tr *trace.Trace, policyName string, seed uint64, mut *Mutation, during func(*psp.Server)) (*LiveRun, error) {
	numTypes := tr.NumTypes()
	if numTypes < len(spec.Mix.Types) {
		numTypes = len(spec.Mix.Types)
	}
	cfg, err := liveConfig(spec, numTypes, policyName, seed, mut)
	if err != nil {
		return nil, err
	}

	var spanMu sync.Mutex
	var spans []trace.Span
	cfg.TraceSink = func(sp trace.Span) {
		spanMu.Lock()
		spans = append(spans, sp)
		spanMu.Unlock()
	}
	srv, err := psp.NewServer(cfg)
	if err != nil {
		return nil, err
	}

	run := &LiveRun{
		Policy:         policyName,
		NumTypes:       numTypes,
		StaticReserved: spec.StaticReserved,
		ShortType:      spec.shortestType(),
	}
	if mut != nil {
		run.AdmissionBudget = mut.admissionBudget
	}
	var resMu sync.Mutex
	var t0 time.Time
	srv.Controller().OnUpdate = func(res *darc.Reservation) {
		at := time.Since(t0)
		resMu.Lock()
		run.Reservations = append(run.Reservations, ResUpdate{At: at, Res: res})
		resMu.Unlock()
	}

	// The span clock starts inside ListenUDPShards (srv.Start); t0
	// stamped immediately before keeps the reservation timeline and
	// the span offsets on the same clock to sub-millisecond skew.
	t0 = time.Now()
	u, err := psp.ListenUDPShards("127.0.0.1:0", srv, psp.UDPOptions{})
	if err != nil {
		return nil, err
	}
	defer u.Close()

	// Warmup: pipelined calls with the mix's mean service demands, so
	// DARC's profiler converges on the real per-type means before the
	// replay (and installs its first reservation). Keeping Workers
	// requests in flight overlaps the sleeps — a sequential warmup at
	// multi-millisecond services would take longer than the replay — and
	// exercises the same contended dispatch path the replay measures.
	// Only the source's types are drawn; the warmup is closed-loop, so
	// the arrival rate is unused.
	warm, err := workload.NewSource(spec.Mix, 1, rng.New(seed^0xC0FFEE))
	if err != nil {
		return nil, err
	}
	inflight := make([]<-chan psp.Response, 0, spec.Workers)
	for i := 0; i < liveWarmupCalls; i++ {
		typ := warm.Next().Type
		rec := trace.Record{Type: typ, Service: spec.Mix.Types[typ].Service.Mean()}
		ch, err := srv.Submit(loadgen.ReplayPayload(rec))
		if err != nil {
			return nil, fmt.Errorf("conformance: warmup submit: %w", err)
		}
		inflight = append(inflight, ch)
		if len(inflight) >= spec.Workers {
			<-inflight[0]
			inflight = inflight[1:]
		}
	}
	for _, ch := range inflight {
		<-ch
	}
	if policyName == "darc" {
		// Give a (possibly delayed) controller one more beat, then
		// record whether the reservation actually made it in; the
		// comparator turns a miss into a divergence.
		deadline := time.Now().Add(200 * time.Millisecond)
		for srv.Controller().Reservation() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		run.ReservationAtReplay = srv.Controller().Reservation() != nil
	}
	time.Sleep(liveSettle)
	run.ReplayStart = time.Since(t0)

	var hookWG sync.WaitGroup
	if during != nil {
		hookWG.Add(1)
		go func() {
			defer hookWG.Done()
			during(srv)
		}()
	}
	res, err := loadgen.ReplayUDP(u.Addr().String(), tr, loadgen.Config{Timeout: 10 * time.Second})
	hookWG.Wait()
	if err != nil {
		return nil, err
	}
	run.Result = res

	u.Close()
	stats := srv.StatsSnapshot()
	run.TraceLost = stats.TraceLost
	if stats.Admission != nil {
		run.AdmissionShed = stats.Admission.Totals().Shed()
	}

	// Partition by request ID, not by clock: the warmup's in-process
	// calls own server IDs 1..liveWarmupCalls, the replay owns the
	// rest. (An ingress-vs-ReplayStart comparison is tempting but the
	// two clocks start sub-milliseconds apart — on a loaded host the
	// skew swallows the replay's earliest arrivals.)
	spanMu.Lock()
	for _, sp := range spans {
		if sp.ID > liveWarmupCalls {
			run.Spans = append(run.Spans, sp)
		} else {
			run.WarmupSpans++
		}
	}
	spanMu.Unlock()
	return run, nil
}
