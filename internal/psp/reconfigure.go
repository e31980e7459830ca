package psp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/reconfig"
	"repro/internal/sched"
	"repro/internal/spsc"
	"repro/internal/trace"
)

// Live reconfiguration: the dispatcher applies reconfig.Specs between
// scheduling decisions, so every change — policy swap, worker resize,
// admission update, DARC refresh — lands atomically with respect to
// request flow. Mechanics:
//
//   - Reconfigure enqueues an op and blocks; the dispatcher takes one
//     op at a time at the top of its loop (step 0).
//   - Every requested change is validated before anything is applied,
//     so a rejected spec leaves the server untouched.
//   - Policy swaps and resizes are scheduling-core operations
//     (sched.Core.SetMode, Resize): the core migrates queued requests
//     between queue families (central typed queues <-> per-worker
//     d-FCFS queues) preserving arrival order; requests the target
//     family has no room for are shed here with full accounting, never
//     silently lost.
//   - Shrinks retire the highest-numbered workers: idle retirees get
//     their shutdown sentinel immediately, busy ones finish their
//     in-flight request first (the completion handler sentinels them),
//     and the op completes when the last retiree has drained.
//   - Grows reuse retired slots with fresh request rings (the previous
//     tenant may not have consumed its sentinel yet, and an SPSC ring
//     tolerates exactly one consumer) or extend the pool arrays.
//
// Reconfigure must not be called from a Handler: a shrink retiring the
// calling worker would wait on a completion that can never arrive.

// ErrReconfigUnsupported reports a spec asking for a change the server
// cannot make (e.g. admission updates on a server built without
// admission control).
var ErrReconfigUnsupported = errors.New("psp: unsupported reconfiguration")

// reconfigOp is one in-flight reconfiguration.
type reconfigOp struct {
	spec reconfig.Spec
	res  reconfig.Result
	err  error
	done chan struct{}

	// Dispatcher-only drain state for shrinks.
	retireLeft int
	drainStart time.Duration
	deadline   time.Duration
}

// Reconfigure applies spec to the running server and blocks until the
// change is fully in effect — including the graceful drain of retiring
// workers on a shrink. Concurrent calls serialize in arrival order;
// each spec is validated in full before any part of it applies, so an
// error means the server is unchanged. Returns ErrServerStopped when
// the server is stopped before or while the spec is being applied.
func (s *Server) Reconfigure(spec reconfig.Spec) (reconfig.Result, error) {
	if spec.Empty() {
		s.rcRejected.Add(1)
		return reconfig.Result{}, errors.New("psp: empty reconfiguration spec")
	}
	if !s.started.Load() {
		s.rcRejected.Add(1)
		return reconfig.Result{}, errors.New("psp: Reconfigure before Start")
	}
	// Cheap static validation up front; dispatcher-state-dependent
	// checks (type counts, admission availability) run on the
	// dispatcher in validateOp.
	if spec.Policy != nil {
		err := spec.Policy.Err
		if err == nil {
			_, err = spec.Policy.Mode()
		}
		if err != nil {
			s.rcRejected.Add(1)
			return reconfig.Result{}, err
		}
	}
	if spec.Workers != nil && *spec.Workers <= 0 {
		s.rcRejected.Add(1)
		return reconfig.Result{}, fmt.Errorf("psp: resize to %d workers (want > 0)", *spec.Workers)
	}
	op := &reconfigOp{spec: spec, done: make(chan struct{})}
	s.rcMu.Lock()
	if s.rcClosed || s.stopped.Load() {
		s.rcMu.Unlock()
		return reconfig.Result{}, ErrServerStopped
	}
	s.rcOps = append(s.rcOps, op)
	s.rcPending.Add(1)
	s.rcMu.Unlock()
	s.park.Wake()
	<-op.done
	if op.err != nil {
		return reconfig.Result{}, op.err
	}
	return op.res, nil
}

// ConfigSnapshot reports the server's current runtime configuration;
// safe from any goroutine (it reads only atomic mirrors).
func (s *Server) ConfigSnapshot() reconfig.Snapshot {
	snap := reconfig.Snapshot{
		Policy:     sched.Mode(s.modeA.Load()).String(),
		Workers:    int(s.activeA.Load()),
		Generation: s.generation.Load(),
	}
	if s.adm != nil {
		snap.Admission = true
		for i := 0; i <= s.adm.NumTypes(); i++ {
			snap.Budgets = append(snap.Budgets, s.adm.CachedBudget(i).String())
		}
		snap.Overload = s.adm.OverloadThreshold()
	}
	return snap
}

// takeOp dequeues the oldest queued reconfiguration. Dispatcher-only.
func (s *Server) takeOp() *reconfigOp {
	s.rcMu.Lock()
	op := s.rcOps[0]
	s.rcOps = s.rcOps[1:]
	s.rcPending.Add(-1)
	s.rcMu.Unlock()
	return op
}

// beginOp validates and applies one spec. If a shrink leaves workers
// draining, the op parks as pendingOp until the completion handler
// counts the last retiree out. Dispatcher-only.
func (s *Server) beginOp(op *reconfigOp) {
	if err := s.validateOp(op); err != nil {
		s.failOp(op, err)
		return
	}
	op.deadline = op.spec.DrainDeadline
	if op.deadline <= 0 {
		op.deadline = reconfig.DefaultDrainDeadline
	}
	if op.spec.Admission != nil {
		s.applyAdmission(op)
	}
	if op.spec.ForceDARCUpdate {
		if s.ctl.ForceUpdate() {
			op.res.Applied = append(op.res.Applied, "darc reservation recomputed")
		} else {
			op.res.Applied = append(op.res.Applied, "darc refresh no-op (no profile yet)")
		}
	}
	if op.spec.Policy != nil {
		s.applyPolicy(op)
	}
	if op.spec.Workers != nil {
		s.applyResize(op)
	}
	if op.retireLeft > 0 {
		op.drainStart = s.now()
		s.pendingOp = op
		return
	}
	s.finishOp(op)
}

// validateOp checks everything the spec asks for against dispatcher
// state before any of it applies.
func (s *Server) validateOp(op *reconfigOp) error {
	spec := op.spec
	target := s.core.Active()
	if spec.Workers != nil {
		target = *spec.Workers
	}
	if spec.Policy != nil && spec.Policy.Kind == sched.KindDARCStatic {
		numTypes := s.cfg.Classifier.NumTypes()
		means := spec.Policy.StaticMeans
		if len(means) == 0 {
			means = s.cfg.StaticMeans
		}
		if len(means) != numTypes {
			return fmt.Errorf("psp: darc-static needs %d static means, got %d", numTypes, len(means))
		}
		if spec.Policy.StaticReserved < 0 || spec.Policy.StaticReserved > target {
			return fmt.Errorf("psp: darc-static reserved %d out of range for %d workers",
				spec.Policy.StaticReserved, target)
		}
	}
	if spec.Admission != nil && s.adm == nil {
		return fmt.Errorf("%w: admission control was disabled at construction", ErrReconfigUnsupported)
	}
	return nil
}

// applyAdmission merges the change into the controller's current
// policy and installs it. Dispatcher-only.
func (s *Server) applyAdmission(op *reconfigOp) {
	ch := op.spec.Admission
	cfg := s.adm.Config()
	if ch.Budgets != nil {
		cfg.Budgets = append([]time.Duration(nil), ch.Budgets...)
	}
	if ch.UnknownBudget != nil {
		cfg.UnknownBudget = *ch.UnknownBudget
	}
	if ch.OverloadDelay != nil {
		cfg.OverloadDelay = *ch.OverloadDelay
	}
	if ch.AutoMult != nil {
		cfg.AutoMult = *ch.AutoMult
	}
	if ch.MinBudget != nil {
		cfg.MinBudget = *ch.MinBudget
	}
	s.adm.Update(cfg)
	op.res.Applied = append(op.res.Applied, "admission policy updated")
}

// applyPolicy swaps the scheduling policy; the core migrates queued
// requests when the swap crosses the central/per-worker boundary.
// Dispatcher-only; validated beforehand.
func (s *Server) applyPolicy(op *reconfigOp) {
	pc := op.spec.Policy
	target, _ := pc.Mode() // validated in Reconfigure
	cur := s.core.Mode()
	if pc.SteerSeed != 0 {
		s.steer = pc.SteerSeed
	}
	if target == sched.DARCStatic {
		if len(pc.StaticMeans) > 0 {
			s.cfg.StaticMeans = append([]time.Duration(nil), pc.StaticMeans...)
		}
		s.core.SetStatic(s.cfg.StaticMeans, pc.StaticReserved)
	}
	if cur == target {
		op.res.Applied = append(op.res.Applied, fmt.Sprintf("policy already %s", target))
		return
	}
	moved, overflow := s.core.SetMode(target)
	s.settleMigration(op, moved, overflow)
	s.modeA.Store(int64(target))
	s.rcPolicySwaps.Add(1)
	op.res.Applied = append(op.res.Applied, fmt.Sprintf("policy %s -> %s", cur, target))
}

// settleMigration books a core migration. A request the target queues
// had no room for is shed with full accounting (admission NACK when
// the controller is on, StatusDropped otherwise) — a migration never
// loses a request silently.
func (s *Server) settleMigration(op *reconfigOp, moved int, overflow []*Request) {
	for _, r := range overflow {
		if s.adm != nil {
			s.shed(r, admission.ShedOverload)
		} else {
			s.drop(r)
		}
	}
	op.res.Migrated += moved
	op.res.MigratedShed += len(overflow)
	s.rcMigrated.Add(uint64(moved))
	s.rcMigratedShed.Add(uint64(len(overflow)))
}

// applyResize grows or shrinks the worker pool to the spec's target.
// The core moves the active bound, re-steers d-FCFS backlogs off
// retiring workers, recomputes the DARC reservation over the new
// population (§6: DARC cooperates with a core allocator) and clamps a
// DARC-static reservation; this side starts and retires the worker
// goroutines. Dispatcher-only; validated beforehand.
func (s *Server) applyResize(op *reconfigOp) {
	target := *op.spec.Workers
	old := s.core.Active()
	if target == old {
		op.res.Applied = append(op.res.Applied, fmt.Sprintf("workers already %d", target))
		return
	}
	reserved := s.core.StaticReserved()
	moved, overflow, err := s.core.Resize(target)
	s.settleMigration(op, moved, overflow)
	s.activeA.Store(int64(target))
	if target > old {
		s.growWorkers(op, old, target)
	} else {
		s.shrinkWorkers(op, old, target)
	}
	if err != nil {
		// The controller refused the new geometry (cannot happen with
		// the spillway auto-clamp, but never leave the pools and the
		// reservation disagreeing silently).
		op.res.Applied = append(op.res.Applied, fmt.Sprintf("darc resize: %v", err))
	}
	if got := s.core.StaticReserved(); got != reserved {
		op.res.Applied = append(op.res.Applied, fmt.Sprintf("static reserved clamped to %d", got))
	}
	s.rcResizes.Add(1)
	op.res.Applied = append(op.res.Applied, fmt.Sprintf("workers -> %d", target))
}

// growWorkers starts workers on slots [old, target): retired slots are
// reused with fresh request rings, new slots extend the pool arrays.
func (s *Server) growWorkers(op *reconfigOp, old, target int) {
	for w := old; w < target; w++ {
		if w < len(s.rings) {
			// Reactivating a retired slot: the previous tenant got its
			// sentinel but may not have consumed it yet, so the new
			// tenant gets a fresh ring to keep one consumer per ring.
			s.rings[w] = spsc.NewRing[*Request](8)
		} else {
			s.rings = append(s.rings, spsc.NewRing[*Request](8))
			s.retiring = append(s.retiring, false)
			if s.traceRings != nil {
				// FlushTrace walks traceRings under traceMu; grow it
				// under the same lock. Span rings are never replaced:
				// unread spans from a retired tenant still drain.
				s.traceMu.Lock()
				s.traceRings = append(s.traceRings, spsc.NewRing[trace.Span](s.traceCap))
				s.traceMu.Unlock()
			}
		}
		s.core.Release(w)
		s.wg.Add(1)
		go s.workerLoop(w, s.rings[w], s.traceRingFor(w))
		op.res.Added++
	}
}

// shrinkWorkers retires slots [target, old): idle retirees are
// sentinelled immediately, busy ones drain via the completion handler.
func (s *Server) shrinkWorkers(op *reconfigOp, old, target int) {
	for w := target; w < old; w++ {
		op.res.Retired++
		if s.core.Idle(w) {
			// Idle: parked in ring.Get; the sentinel releases it now.
			s.rings[w].Put(nil)
			continue
		}
		// Busy (or crashed and awaiting respawn): the completion
		// handler sentinels the slot when its current request (or the
		// respawn announcement) arrives.
		s.retiring[w] = true
		op.retireLeft++
	}
}

// failOp rejects the op without applying anything.
func (s *Server) failOp(op *reconfigOp, err error) {
	s.rcRejected.Add(1)
	op.err = err
	close(op.done)
}

// finishOp completes a fully applied op: stamps the drain wait,
// bumps the configuration generation, and releases the caller.
func (s *Server) finishOp(op *reconfigOp) {
	if op.drainStart > 0 {
		op.res.DrainWait = s.now() - op.drainStart
		op.res.DrainDeadlineExceeded = op.res.DrainWait > op.deadline
		s.rcLastDrainNs.Store(int64(op.res.DrainWait))
	}
	op.res.Generation = s.generation.Add(1)
	s.rcApplied.Add(1)
	if s.pendingOp == op {
		s.pendingOp = nil
	}
	close(op.done)
}
