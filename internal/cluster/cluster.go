// Package cluster models a single multi-core server inside the
// discrete-event simulator: application workers, the request
// lifecycle, flow control, and the driver that connects an open-loop
// arrival process to a pluggable scheduling policy.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Request is one in-flight request inside the simulated machine.
type Request struct {
	ID   uint64
	Type int
	// Service is the request's pure processing demand.
	Service time.Duration
	// Remaining is the unexecuted part of Service (preemptive policies
	// run requests in slices).
	Remaining time.Duration
	// Arrival is the instant the request reached the dispatcher.
	Arrival sim.Time
	// FirstDispatch is the instant the request first reached a worker
	// (-1 until then).
	FirstDispatch sim.Time
	// Preemptions counts how many times a time-sharing policy
	// interrupted the request.
	Preemptions int
}

// QueueDelay reports how long the request waited before first touching
// a worker.
func (r *Request) QueueDelay() time.Duration {
	if r.FirstDispatch < 0 {
		return 0
	}
	return r.FirstDispatch - r.Arrival
}

// FIFO is the scheduling core's bounded ring queue over simulated
// requests. Policies use one per worker, one central, or one per
// request type.
type FIFO = sched.FIFO[*Request]

// Worker is one simulated application core.
type Worker struct {
	ID  int
	cur *Request
	// busy accumulates occupied time (service plus scheduling
	// overheads) for utilization accounting.
	busy      time.Duration
	busySince sim.Time

	// The worker's event callbacks, built once by NewMachine so that a
	// dispatch allocates nothing. They read the per-dispatch state
	// below, which is only live while the worker is occupied.
	onDone, onSliceDone, onOverheadDone func()

	slice      time.Duration               // length of the running slice (RunSlice)
	sliceEnd   func(w *Worker, r *Request) // RunSlice's continuation
	overheadOf *Request                    // the request Overhead hands to then
	then       func(w *Worker, r *Request) // Overhead's continuation
}

// Idle reports whether the worker has no request or overhead running.
func (w *Worker) Idle() bool { return w.cur == nil && w.busySince < 0 }

// Current returns the request the worker is executing, if any.
func (w *Worker) Current() *Request { return w.cur }

// BusyTime reports accumulated busy time.
func (w *Worker) BusyTime() time.Duration { return w.busy }

// CompletionObserver is an optional Policy extension: policies that
// profile service times (DARC) implement it to observe each completed
// request before the worker is handed back via WorkerFree.
type CompletionObserver interface {
	Completed(w *Worker, r *Request)
}

// Policy is a scheduling discipline plugged into a Machine. The
// machine calls Arrive for every new request and WorkerFree every time
// a worker becomes available; the policy reacts by calling
// Machine.Run/RunSlice/Overhead.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once, after workers exist and before any arrival.
	Init(m *Machine)
	// Arrive hands the policy a new request at the current virtual
	// instant. The policy owns queueing and may dispatch immediately.
	Arrive(r *Request)
	// WorkerFree notifies the policy that w just became idle (after a
	// completion or an overhead period). The policy should assign new
	// work if any is eligible.
	WorkerFree(w *Worker)
}

// Machine is the simulated server.
type Machine struct {
	Sim      *sim.Sim
	Workers  []*Worker
	Policy   Policy
	Recorder *metrics.Recorder

	// OnComplete, when non-nil, observes every completion after it is
	// recorded (used by time-series experiments).
	OnComplete func(r *Request, at sim.Time)

	nextID    uint64
	completed uint64
	arrived   uint64
	dropped   uint64

	// slab is the unused tail of the block Arrive takes requests from.
	slab []Request
}

// slabSize is how many requests Arrive allocates at once.
const slabSize = 256

// NewMachine builds a machine with the given number of workers.
func NewMachine(s *sim.Sim, workers int, p Policy, rec *metrics.Recorder) *Machine {
	if workers <= 0 {
		panic(fmt.Sprintf("cluster: non-positive worker count %d", workers))
	}
	m := &Machine{Sim: s, Policy: p, Recorder: rec}
	for i := 0; i < workers; i++ {
		w := &Worker{ID: i, busySince: -1}
		w.onDone = func() {
			r := w.cur
			r.Remaining = 0
			m.done(w, r)
		}
		w.onSliceDone = func() {
			r := w.cur
			r.Remaining -= w.slice
			if r.Remaining <= 0 {
				m.done(w, r)
				return
			}
			m.finish(w, r)
			w.sliceEnd(w, r)
		}
		w.onOverheadDone = func() {
			w.busy += m.Sim.Now() - w.busySince
			w.busySince = -1
			r, then := w.overheadOf, w.then
			w.overheadOf, w.then = nil, nil
			then(w, r)
		}
		m.Workers = append(m.Workers, w)
	}
	p.Init(m)
	return m
}

// Arrive injects a request of the given type and service demand at the
// current virtual instant.
func (m *Machine) Arrive(typ int, service time.Duration) *Request {
	if len(m.slab) == 0 {
		m.slab = make([]Request, slabSize)
	}
	r := &m.slab[0]
	m.slab = m.slab[1:]
	*r = Request{
		ID:            m.nextID,
		Type:          typ,
		Service:       service,
		Remaining:     service,
		Arrival:       m.Sim.Now(),
		FirstDispatch: -1,
	}
	m.nextID++
	m.arrived++
	m.Policy.Arrive(r)
	return r
}

// Run starts non-preemptive service of r on idle worker w: the worker
// is occupied for r.Remaining, then the completion is recorded and the
// policy regains the worker.
func (m *Machine) Run(w *Worker, r *Request) {
	m.begin(w, r)
	m.Sim.After(r.Remaining, w.onDone)
}

// RunSlice starts preemptive service of r on idle worker w for at most
// slice time. If the request finishes within the slice it is completed
// as in Run; otherwise onSliceEnd is invoked with the worker idle
// again — the policy decides whether to resume the request (no
// preemption happened) or to preempt it: charge an overhead via
// Overhead, bump r.Preemptions, requeue r and free the worker.
func (m *Machine) RunSlice(w *Worker, r *Request, slice time.Duration, onSliceEnd func(w *Worker, r *Request)) {
	if slice <= 0 {
		panic("cluster: non-positive slice")
	}
	m.begin(w, r)
	w.slice = min(r.Remaining, slice)
	w.sliceEnd = onSliceEnd
	m.Sim.After(w.slice, w.onSliceDone)
}

// RunHandle identifies a preemptible execution started with
// RunPreemptible so it can be interrupted before completion. It is a
// value; the zero RunHandle names no execution and reports Done.
type RunHandle struct {
	w     *Worker
	r     *Request
	start sim.Time
	ev    sim.Handle
}

// Request returns the request being executed.
func (h RunHandle) Request() *Request { return h.r }

// Worker returns the executing worker.
func (h RunHandle) Worker() *Worker { return h.w }

// Done reports whether the execution already completed or was
// interrupted.
func (h RunHandle) Done() bool { return !h.ev.Pending() }

// RunPreemptible starts service of r on idle worker w exactly like
// Run, but returns a handle that Interrupt can use to stop the request
// at an arbitrary instant — the primitive behind asynchronous
// (arrival-triggered) preemption models.
func (m *Machine) RunPreemptible(w *Worker, r *Request) RunHandle {
	m.begin(w, r)
	return RunHandle{w: w, r: r, start: m.Sim.Now(), ev: m.Sim.After(r.Remaining, w.onDone)}
}

// Interrupt stops a preemptible execution, crediting the executed time
// against the request's remaining demand and leaving the worker idle.
// It reports false if the execution already finished. The caller owns
// the request afterwards (typically: bump Preemptions, pay Overhead,
// requeue).
func (m *Machine) Interrupt(h RunHandle) bool {
	if !m.Sim.Cancel(h.ev) {
		return false
	}
	h.r.Remaining = max(h.r.Remaining-(m.Sim.Now()-h.start), 0)
	m.finish(h.w, h.r)
	return true
}

// Overhead occupies idle worker w for d of non-service time (steal
// cost, preemption cost, ...) and then invokes then(w, r); r is
// whatever request the policy wants back, or nil. A zero duration
// invokes then immediately. Passing the request through, rather than
// capturing it, lets a policy bind then once.
func (m *Machine) Overhead(w *Worker, d time.Duration, r *Request, then func(w *Worker, r *Request)) {
	if d <= 0 {
		then(w, r)
		return
	}
	if !w.Idle() {
		panic(fmt.Sprintf("cluster: overhead on busy worker %d", w.ID))
	}
	w.busySince = m.Sim.Now()
	w.overheadOf, w.then = r, then
	m.Sim.After(d, w.onOverheadDone)
}

func (m *Machine) begin(w *Worker, r *Request) {
	if !w.Idle() {
		panic(fmt.Sprintf("cluster: dispatch to busy worker %d", w.ID))
	}
	if r.FirstDispatch < 0 {
		r.FirstDispatch = m.Sim.Now()
	}
	w.cur = r
	w.busySince = m.Sim.Now()
}

func (m *Machine) finish(w *Worker, r *Request) {
	w.busy += m.Sim.Now() - w.busySince
	w.busySince = -1
	w.cur = nil
}

// done completes r, which has no service left, and hands w back to the
// policy.
func (m *Machine) done(w *Worker, r *Request) {
	m.finish(w, r)
	m.complete(r)
	m.notifyCompleted(w, r)
	m.Policy.WorkerFree(w)
}

func (m *Machine) complete(r *Request) {
	m.completed++
	if m.Recorder != nil {
		m.Recorder.Complete(r.Type, r.Arrival, m.Sim.Now(), r.Service, r.FirstDispatch, r.Preemptions)
	}
	if m.OnComplete != nil {
		m.OnComplete(r, m.Sim.Now())
	}
}

func (m *Machine) notifyCompleted(w *Worker, r *Request) {
	if co, ok := m.Policy.(CompletionObserver); ok {
		co.Completed(w, r)
	}
}

// RecordDrop counts a shed request (bounded queue overflow).
func (m *Machine) RecordDrop(r *Request) {
	m.dropped++
	if m.Recorder != nil {
		m.Recorder.Drop(r.Type, r.Arrival)
	}
}

// Arrived reports the number of injected requests.
func (m *Machine) Arrived() uint64 { return m.arrived }

// Completed reports the number of finished requests.
func (m *Machine) Completed() uint64 { return m.completed }

// Dropped reports the number of shed requests.
func (m *Machine) Dropped() uint64 { return m.dropped }

// InFlight reports requests admitted but neither completed nor
// dropped.
func (m *Machine) InFlight() uint64 { return m.arrived - m.completed - m.dropped }

// IdleWorkers returns the currently idle workers in ID order.
func (m *Machine) IdleWorkers() []*Worker {
	var idle []*Worker
	for _, w := range m.Workers {
		if w.Idle() {
			idle = append(idle, w)
		}
	}
	return idle
}

// Utilization reports the mean busy fraction across workers over the
// elapsed virtual time.
func (m *Machine) Utilization() float64 {
	now := m.Sim.Now()
	if now <= 0 || len(m.Workers) == 0 {
		return 0
	}
	var busy time.Duration
	for _, w := range m.Workers {
		busy += w.busy
		if w.busySince >= 0 {
			busy += now - w.busySince
		}
	}
	return float64(busy) / (float64(now) * float64(len(m.Workers)))
}

// WorkerUtilization reports one worker's busy fraction.
func (m *Machine) WorkerUtilization(id int) float64 {
	now := m.Sim.Now()
	if now <= 0 || id < 0 || id >= len(m.Workers) {
		return 0
	}
	w := m.Workers[id]
	busy := w.busy
	if w.busySince >= 0 {
		busy += now - w.busySince
	}
	return float64(busy) / float64(now)
}
