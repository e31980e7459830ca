package policy

import (
	"time"

	"repro/internal/cluster"
)

// TSMultiQueue is Shinjuku's multi-queue policy: one queue per request
// type, preempted requests re-enqueued at the *head* of their own
// queue, and queue selection by a Borrowed-Virtual-Time variant — the
// queue whose accumulated virtual CPU time is smallest runs next. Used
// by the paper for High Bimodal, TPC-C and RocksDB.
type TSMultiQueue struct {
	cfg         TSConfig
	numTypes    int
	m           *cluster.Machine
	queues      []cluster.FIFO
	vtime       []time.Duration
	preemptions uint64

	// sliceEnd and requeue bound once, so a dispatch allocates nothing.
	onSliceEnd, onPreempted func(w *cluster.Worker, r *cluster.Request)
}

// NewTSMultiQueue builds the policy for the given number of request
// types.
func NewTSMultiQueue(cfg TSConfig, numTypes int) *TSMultiQueue {
	cfg.fill()
	p := &TSMultiQueue{cfg: cfg, numTypes: numTypes}
	return p
}

// Name implements cluster.Policy.
func (p *TSMultiQueue) Name() string { return "TS-multi" }

// Traits implements TraitsProvider.
func (p *TSMultiQueue) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: true, WorkConserving: true, Preemptive: true}
}

// Init implements cluster.Policy.
func (p *TSMultiQueue) Init(m *cluster.Machine) {
	p.m = m
	p.queues = make([]cluster.FIFO, p.numTypes)
	p.vtime = make([]time.Duration, p.numTypes)
	for i := range p.queues {
		p.queues[i].Cap = p.cfg.QueueCap
	}
	p.onSliceEnd, p.onPreempted = p.sliceEnd, p.requeue
}

// Preemptions reports how many interrupts actually fired.
func (p *TSMultiQueue) Preemptions() uint64 { return p.preemptions }

func (p *TSMultiQueue) queueOf(r *cluster.Request) *cluster.FIFO {
	t := r.Type
	if t < 0 || t >= p.numTypes {
		t = p.numTypes - 1
	}
	return &p.queues[t]
}

// Arrive implements cluster.Policy.
func (p *TSMultiQueue) Arrive(r *cluster.Request) {
	// A queue waking from empty inherits the smallest active virtual
	// time so it cannot monopolise workers with stale credit.
	t := r.Type
	if t >= 0 && t < p.numTypes && p.queues[t].Empty() {
		if min, ok := p.minActiveVT(); ok && p.vtime[t] < min {
			p.vtime[t] = min
		}
	}
	for _, w := range p.m.Workers {
		if w.Idle() {
			p.start(w, r)
			return
		}
	}
	pushOrDrop(p.m, p.queueOf(r), r)
}

// WorkerFree implements cluster.Policy.
func (p *TSMultiQueue) WorkerFree(w *cluster.Worker) {
	if r := p.next(); r != nil {
		p.start(w, r)
	}
}

// next pops from the non-empty queue with the smallest virtual time.
func (p *TSMultiQueue) next() *cluster.Request {
	best := -1
	for i := range p.queues {
		if p.queues[i].Empty() {
			continue
		}
		if best < 0 || p.vtime[i] < p.vtime[best] {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return p.queues[best].Pop()
}

func (p *TSMultiQueue) minActiveVT() (time.Duration, bool) {
	var min time.Duration
	found := false
	for i := range p.queues {
		if p.queues[i].Empty() {
			continue
		}
		if !found || p.vtime[i] < min {
			min = p.vtime[i]
			found = true
		}
	}
	return min, found
}

func (p *TSMultiQueue) start(w *cluster.Worker, r *cluster.Request) {
	p.m.RunSlice(w, r, p.cfg.Quantum, p.onSliceEnd)
	// Completed-within-slice executions are charged in Completed.
}

func (p *TSMultiQueue) charge(r *cluster.Request, executed time.Duration) {
	t := r.Type
	if t < 0 || t >= p.numTypes {
		t = p.numTypes - 1
	}
	p.vtime[t] += executed
}

// Completed implements cluster.CompletionObserver: charge the final
// slice of finished requests to their queue's virtual time.
func (p *TSMultiQueue) Completed(w *cluster.Worker, r *cluster.Request) {
	// The final slice ran at most Quantum; its exact length is the
	// remainder of the service after the previous slices. Recompute
	// from Service modulo is fragile, so charge the remainder directly:
	rem := r.Service % p.cfg.Quantum
	if rem == 0 && r.Service > 0 {
		rem = p.cfg.Quantum
	}
	p.charge(r, rem)
}

// sliceEnd charges the slice, which ran a full quantum (a shorter one
// completes the request instead). It then resumes the request for free
// when nothing else waits, otherwise pays the interrupt, re-enqueues at
// the *head* of the request's own queue and picks by BVT.
func (p *TSMultiQueue) sliceEnd(w *cluster.Worker, r *cluster.Request) {
	p.charge(r, p.cfg.Quantum)
	if _, anyWaiting := p.minActiveVT(); !anyWaiting {
		p.start(w, r)
		return
	}
	r.Preemptions++
	p.preemptions++
	p.m.Overhead(w, p.cfg.PreemptCost, r, p.onPreempted)
}

func (p *TSMultiQueue) requeue(w *cluster.Worker, r *cluster.Request) {
	p.queueOf(r).PushFront(r)
	p.WorkerFree(w)
}
