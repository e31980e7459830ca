package policy

import (
	"time"

	"repro/internal/cluster"
)

// TSIdeal is the paper's Figure-10 family of single-queue preemptive
// systems: a preemption is triggered as soon as a waiting request is
// blocked by a longer-remaining request running on a worker. The
// preemption event takes PropagateDelay to reach the worker (which
// keeps executing meanwhile) and PreemptCost of worker time to take
// effect. With both set to zero this is ideal preemptive SRPT ("TS
// 0µs"); the paper evaluates 1/2/4µs total overhead variants.
type TSIdeal struct {
	m *cluster.Machine
	// queue is ordered by remaining service (SRPT).
	queue *requestHeap
	// running tracks the preemptible execution per worker.
	running []cluster.RunHandle
	// preempting marks workers with an in-flight preemption event;
	// target is the execution that event will interrupt, and fire[id]
	// (built once by Init) is the event's callback.
	preempting []bool
	target     []cluster.RunHandle
	fire       []func()
	// onPreempted is requeue, bound once.
	onPreempted func(w *cluster.Worker, r *cluster.Request)

	// PropagateDelay is the time for a preemption event to reach the
	// worker.
	PropagateDelay time.Duration
	// PreemptCost is worker time consumed by the preemption itself.
	PreemptCost time.Duration

	preemptions uint64
}

// NewTSIdeal builds the policy; see TSIdeal for the parameters. A
// queueCap of 0 applies DefaultQueueCap; negative means unbounded.
func NewTSIdeal(propagate, cost time.Duration, queueCap int) *TSIdeal {
	return &TSIdeal{
		PropagateDelay: propagate,
		PreemptCost:    cost,
		queue: newRequestHeap(normalizeCap(queueCap), func(a, b *cluster.Request) bool {
			return a.Remaining < b.Remaining
		}),
	}
}

// Name implements cluster.Policy.
func (p *TSIdeal) Name() string { return "TS-ideal" }

// Traits implements TraitsProvider.
func (p *TSIdeal) Traits() Traits {
	return Traits{AppAware: false, TypedQueues: false, WorkConserving: true, Preemptive: true}
}

// Init implements cluster.Policy.
func (p *TSIdeal) Init(m *cluster.Machine) {
	p.m = m
	n := len(m.Workers)
	p.running = make([]cluster.RunHandle, n)
	p.preempting = make([]bool, n)
	p.target = make([]cluster.RunHandle, n)
	p.fire = make([]func(), n)
	for id := range p.fire {
		p.fire[id] = func() {
			p.preempting[id] = false
			p.firePreemption(id, p.target[id])
		}
	}
	p.onPreempted = p.requeue
}

// Preemptions reports how many preemptions actually fired.
func (p *TSIdeal) Preemptions() uint64 { return p.preemptions }

// Arrive implements cluster.Policy.
func (p *TSIdeal) Arrive(r *cluster.Request) {
	for _, w := range p.m.Workers {
		if w.Idle() {
			p.start(w, r)
			return
		}
	}
	if !p.queue.Push(r) {
		p.m.RecordDrop(r)
		return
	}
	p.maybePreempt()
}

// WorkerFree implements cluster.Policy.
func (p *TSIdeal) WorkerFree(w *cluster.Worker) {
	if r := p.queue.Pop(); r != nil {
		p.start(w, r)
	}
}

func (p *TSIdeal) start(w *cluster.Worker, r *cluster.Request) {
	p.running[w.ID] = p.m.RunPreemptible(w, r)
}

// maybePreempt triggers a preemption when the shortest waiting request
// is blocked behind a running request with strictly larger remaining
// work. The victim is the worker with the largest remaining work that
// has no preemption already in flight.
func (p *TSIdeal) maybePreempt() {
	head := p.queue.Peek()
	if head == nil {
		return
	}
	victim := -1
	var worst time.Duration
	for id, h := range p.running {
		if h.Done() || p.preempting[id] {
			continue
		}
		rem := h.Request().Remaining // demand when started; still an upper bound ordering
		if rem > worst {
			worst = rem
			victim = id
		}
	}
	if victim < 0 || worst <= head.Remaining {
		return
	}
	p.preempting[victim] = true
	p.target[victim] = p.running[victim]
	p.m.Sim.After(p.PropagateDelay, p.fire[victim])
}

func (p *TSIdeal) firePreemption(victim int, h cluster.RunHandle) {
	// The world may have moved on during propagation: the victim may
	// have finished, or the queue drained.
	if h.Done() {
		return
	}
	head := p.queue.Peek()
	if head == nil {
		return
	}
	if !p.m.Interrupt(h) {
		return
	}
	r := h.Request()
	p.running[victim] = cluster.RunHandle{}
	if r.Remaining <= head.Remaining {
		// No longer worth preempting (it nearly finished during the
		// delay): resume it.
		p.start(h.Worker(), r)
		return
	}
	r.Preemptions++
	p.preemptions++
	p.m.Overhead(h.Worker(), p.PreemptCost, r, p.onPreempted)
}

// requeue returns a preempted request to the queue once the preemption
// cost is paid.
func (p *TSIdeal) requeue(w *cluster.Worker, r *cluster.Request) {
	if !p.queue.Push(r) {
		p.m.RecordDrop(r)
	}
	p.WorkerFree(w)
	p.maybePreempt()
}
