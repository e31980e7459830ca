// Package soak is the invariant-checked chaos soak harness: a seeded,
// long-horizon driver that runs a live Perséphone server under
// sustained in-process load while interleaving randomized fault
// injection (worker crashes, stalls, slowdowns, laggy reservation
// updates — reusing internal/faults) with randomized live
// reconfigurations (policy swaps across every scheduling mode, worker
// pool resizes, admission-budget changes, forced DARC refreshes), and
// continuously asserts the runtime's conservation ledgers:
//
//   - every submitted request is answered exactly once (completed,
//     shed with a NACK, or dropped by an injected crash — never lost);
//   - the admission identity accepted == completed + shed_deadline +
//     shed_overload + shed_lost holds exactly, per type, across every
//     policy swap and resize;
//   - span conservation: every dispatched request either published a
//     lifecycle span, overflowed a trace ring (counted), or died in an
//     injected crash (counted);
//   - each reconfiguration lands exactly: the generation advances by
//     one, the pool and policy match the spec, and shrink drains stay
//     within their deadline.
//
// The same harness runs as `psp soak` (long horizons, several
// seeds) and as a -short test under -race in CI.
package soak

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spin"
)

// Config parameterizes one soak run (one seed).
type Config struct {
	// Seed drives the reconfiguration schedule, the load mix and the
	// fault injector. Equal seeds make equal decisions.
	Seed uint64
	// Reconfigs is how many randomized reconfigurations to apply
	// (default 50).
	Reconfigs int
	// Workers is the initial pool size (default 4); MaxWorkers bounds
	// resizes (default 2x Workers).
	Workers    int
	MaxWorkers int
	// Submitters is the number of closed-loop load goroutines
	// (default 3).
	Submitters int
	// Epoch is the load-soak time between reconfigurations
	// (default 4ms).
	Epoch time.Duration
	// DrainDeadline bounds each shrink's graceful drain (default 2s);
	// exceeding it is a violation.
	DrainDeadline time.Duration
	// Faults enables the chaos layer (crashes, stalls, slowdowns,
	// delayed reservation updates; ingress drop/dup are network-path
	// faults and do not apply to in-process load).
	Faults bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Reconfigs <= 0 {
		c.Reconfigs = 50
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxWorkers < c.Workers {
		c.MaxWorkers = 2 * c.Workers
	}
	if c.Submitters <= 0 {
		c.Submitters = 3
	}
	if c.Epoch <= 0 {
		c.Epoch = 4 * time.Millisecond
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 2 * time.Second
	}
}

// Report is the outcome of one soak run.
type Report struct {
	Seed       uint64
	Reconfigs  int
	PolicyPath []string // policy after each swap, for the log

	PolicySwaps, Resizes, AdmissionUpdates, DARCRefreshes int

	Submitted, Completed, Shed, Dropped uint64
	Migrated, MigratedShed              int
	FaultsInjected, WorkerRestarts      uint64
	MaxDrain                            time.Duration
	FinalGeneration                     uint64

	// Violations lists every invariant breach observed; a clean run
	// has none.
	Violations []string
}

// OK reports whether the run held every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-line digest.
func (r *Report) Summary() string {
	status := "PASS"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf(
		"seed=%d %s: %d reconfigs (%d swaps, %d resizes, %d admission, %d darc) "+
			"%d submitted (%d completed, %d shed, %d dropped) %d migrated (%d shed) "+
			"%d faults, %d restarts, max drain %s, gen %d",
		r.Seed, status, r.Reconfigs, r.PolicySwaps, r.Resizes, r.AdmissionUpdates,
		r.DARCRefreshes, r.Submitted, r.Completed, r.Shed, r.Dropped,
		r.Migrated, r.MigratedShed, r.FaultsInjected, r.WorkerRestarts,
		r.MaxDrain, r.FinalGeneration)
}

const (
	numTypes    = 2
	unknownType = 9 // classifies to classify.Unknown
)

var serviceTimes = []time.Duration{2 * time.Microsecond, 20 * time.Microsecond}

type soakHandler struct{}

func (soakHandler) Handle(typ int, payload []byte, resp []byte) (int, proto.Status) {
	if typ >= 0 && typ < len(serviceTimes) {
		spin.For(serviceTimes[typ])
	} else {
		spin.For(5 * time.Microsecond)
	}
	return copy(resp, payload), proto.StatusOK
}

// Run executes one seeded soak and returns its report. An error means
// the harness itself could not run (server construction failed);
// invariant breaches are reported as Violations, not errors.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	spin.Calibrate(10 * time.Millisecond)
	rep := &Report{Seed: cfg.Seed, Reconfigs: cfg.Reconfigs}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	scfg := psp.Config{
		Workers:    cfg.Workers,
		Classifier: classify.Field{Offset: 0, Types: numTypes},
		Handler:    soakHandler{},
		Admission:  &admission.Config{},
	}
	if cfg.Faults {
		scfg.Faults = &faults.Profile{
			Seed:             cfg.Seed,
			StallWorker:      0,
			StallDuration:    50 * time.Microsecond,
			SlowWorker:       1,
			SlowFactor:       1.5,
			CrashRate:        0.002,
			RespawnDelay:     200 * time.Microsecond,
			ReservationDelay: 100 * time.Microsecond,
		}
	}
	srv, err := psp.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	srv.Start()

	// Closed-loop load: each submitter drives one request at a time,
	// so stopping the submitters quiesces in-flight load naturally.
	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		submitted atomic.Uint64
		completed atomic.Uint64
		shed      atomic.Uint64
		dropped   atomic.Uint64
	)
	for i := 0; i < cfg.Submitters; i++ {
		wg.Add(1)
		go func(stream uint64) {
			defer wg.Done()
			r := rng.NewStream(cfg.Seed, stream+1)
			payload := make([]byte, 8)
			for !stop.Load() {
				typ := r.Intn(10)
				switch {
				case typ < 5:
					typ = 0
				case typ < 9:
					typ = 1
				default:
					typ = unknownType // exercises the unknown spillway
				}
				binary.LittleEndian.PutUint16(payload, uint16(typ))
				ch, err := srv.Submit(payload)
				if err != nil {
					// Ingress backpressure; the request was refused
					// before entering any ledger.
					runtime.Gosched()
					continue
				}
				submitted.Add(1)
				select {
				case resp := <-ch:
					switch resp.Status {
					case proto.StatusOK:
						completed.Add(1)
					case proto.StatusOverloaded:
						shed.Add(1)
					default:
						dropped.Add(1)
					}
				case <-time.After(10 * time.Second):
					violate("submitter %d: response lost (10s timeout)", stream)
					return
				}
			}
		}(uint64(i))
	}

	// The reconfiguration schedule: one randomized spec per epoch.
	schedule := rng.NewStream(cfg.Seed, 0)
	policies := sched.LiveSpecs()
	curPolicy := "DARC"
	curWorkers := cfg.Workers
	lastGen := uint64(0)
	for i := 0; i < cfg.Reconfigs; i++ {
		time.Sleep(cfg.Epoch)
		spec := reconfig.Spec{DrainDeadline: cfg.DrainDeadline}
		wantPolicy := curPolicy
		wantWorkers := curWorkers
		switch k := schedule.Intn(10); {
		case k < 4: // policy swap
			pc := &reconfig.PolicyChange{Spec: policies[schedule.Intn(len(policies))]}
			if pc.Kind == sched.KindDARCStatic {
				pc.StaticMeans = serviceTimes
				// Keep at least one unreserved worker so no type can
				// starve while the swap is live.
				if curWorkers > 1 {
					pc.StaticReserved = schedule.Intn(curWorkers)
				}
			}
			spec.Policy = pc
			mode, _ := pc.Mode() // every LiveSpecs entry has a live form
			wantPolicy = mode.String()
			rep.PolicySwaps++
		case k < 8: // resize
			target := 1 + schedule.Intn(cfg.MaxWorkers)
			if target == curWorkers {
				target = 1 + target%cfg.MaxWorkers
			}
			spec.Workers = &target
			wantWorkers = target
			rep.Resizes++
		case k < 9: // admission change
			budget := time.Duration(5+schedule.Intn(45)) * time.Millisecond
			spec.Admission = &reconfig.AdmissionChange{
				Budgets: []time.Duration{budget, 2 * budget},
			}
			rep.AdmissionUpdates++
		default:
			spec.ForceDARCUpdate = true
			rep.DARCRefreshes++
		}
		res, rerr := srv.Reconfigure(spec)
		if rerr != nil {
			violate("reconfig %d rejected: %v (spec %+v)", i, rerr, spec)
			continue
		}
		if res.Generation != lastGen+1 {
			violate("reconfig %d: generation %d, want %d", i, res.Generation, lastGen+1)
		}
		lastGen = res.Generation
		if res.DrainDeadlineExceeded {
			violate("reconfig %d: drain %s exceeded deadline %s", i, res.DrainWait, cfg.DrainDeadline)
		}
		if res.DrainWait > rep.MaxDrain {
			rep.MaxDrain = res.DrainWait
		}
		rep.Migrated += res.Migrated
		rep.MigratedShed += res.MigratedShed
		snap := srv.ConfigSnapshot()
		if snap.Workers != wantWorkers {
			violate("reconfig %d: pool %d, want %d", i, snap.Workers, wantWorkers)
		}
		if snap.Policy != wantPolicy {
			violate("reconfig %d: policy %s, want %s", i, snap.Policy, wantPolicy)
		}
		if wantPolicy != curPolicy {
			rep.PolicyPath = append(rep.PolicyPath, wantPolicy)
		}
		curPolicy, curWorkers = wantPolicy, wantWorkers
		if (i+1)%25 == 0 {
			logf("seed %d: %d/%d reconfigs, %d submitted", cfg.Seed, i+1, cfg.Reconfigs, submitted.Load())
		}
	}

	// Quiesce: stop the closed-loop load (every submitter finishes its
	// in-flight request first), then wait for the ledgers to settle —
	// queued work drains to workers, crashed slots respawn.
	stop.Store(true)
	wg.Wait()
	settled := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if admissionSettled(srv.Admission().Snapshot()) {
			settled = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !settled {
		violate("quiesce timeout: admission ledger still open after 10s")
	}
	srv.Stop()

	// Final conservation checks over the drained server.
	rep.Submitted = submitted.Load()
	rep.Completed = completed.Load()
	rep.Shed = shed.Load()
	rep.Dropped = dropped.Load()
	if rep.Completed+rep.Shed+rep.Dropped != rep.Submitted {
		violate("answers %d != submitted %d (completed %d + shed %d + dropped %d)",
			rep.Completed+rep.Shed+rep.Dropped, rep.Submitted, rep.Completed, rep.Shed, rep.Dropped)
	}
	st := srv.StatsSnapshot()
	rep.FaultsInjected = st.FaultsInjected
	rep.WorkerRestarts = st.WorkerRestarts
	rep.FinalGeneration = lastGen
	for i, slot := range st.Admission.Slots {
		if slot.Accepted != slot.Completed+slot.ShedDeadline+slot.ShedOverload+slot.ShedLost {
			violate("admission slot %d: accepted %d != completed %d + deadline %d + overload %d + lost %d",
				i, slot.Accepted, slot.Completed, slot.ShedDeadline, slot.ShedOverload, slot.ShedLost)
		}
	}
	if st.TraceSpans+st.TraceLost+st.WorkerRestarts != st.Dispatched {
		violate("span conservation: spans %d + lost %d + restarts %d != dispatched %d",
			st.TraceSpans, st.TraceLost, st.WorkerRestarts, st.Dispatched)
	}
	if !cfg.Faults && rep.Dropped != 0 {
		violate("%d drops without fault injection", rep.Dropped)
	}
	if cfg.Faults && rep.Dropped > st.WorkerRestarts {
		violate("%d drops exceed %d injected crashes", rep.Dropped, st.WorkerRestarts)
	}
	logf("%s", rep.Summary())
	return rep, nil
}

// admissionSettled reports whether every admission slot's ledger is
// closed (no accepted request still in flight or queued).
func admissionSettled(st admission.Stats) bool {
	for _, slot := range st.Slots {
		if slot.Accepted != slot.Completed+slot.ShedDeadline+slot.ShedOverload+slot.ShedLost {
			return false
		}
	}
	return true
}
