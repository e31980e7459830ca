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
	// victims indexes the workers a preemption may pick: those running
	// a request with no preemption in flight, keyed by the request's
	// remaining work at start.
	victims victimHeap
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
		queue: newRequestHeap(normalizeCap(queueCap), func(r *cluster.Request) time.Duration {
			return r.Remaining
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
			// The worker's execution, the target or one started
			// during propagation, may be picked again.
			if h := p.running[id]; !h.Done() {
				p.victims.set(id, h.Request().Remaining)
			}
			p.firePreemption(id, p.target[id])
		}
	}
	p.victims = newVictimHeap(n)
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
	// w's execution, if it had one, completed or was preempted.
	p.victims.remove(w.ID)
	if r := p.queue.Pop(); r != nil {
		p.start(w, r)
	}
}

func (p *TSIdeal) start(w *cluster.Worker, r *cluster.Request) {
	p.running[w.ID] = p.m.RunPreemptible(w, r)
	if !p.preempting[w.ID] {
		p.victims.set(w.ID, r.Remaining)
	}
}

// maybePreempt triggers a preemption when the shortest waiting request
// is blocked behind a running request with strictly larger remaining
// work. The victim is the worker with the largest remaining work at
// start (the lowest ID on a tie) that has no preemption already in
// flight.
func (p *TSIdeal) maybePreempt() {
	head := p.queue.Peek()
	if head == nil {
		return
	}
	victim, worst := p.victims.top()
	if victim < 0 || worst <= head.Remaining {
		return
	}
	p.preempting[victim] = true
	p.victims.remove(victim)
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
	p.victims.remove(victim)
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

// victimHeap is a binary max-heap of worker IDs keyed by a remaining
// work, the lower ID first on a tie, with each ID's position tracked
// so that an ID can be updated or removed in place.
type victimHeap struct {
	ids []int           // the heap
	pos []int           // pos[id] is id's index in ids, -1 when absent
	rem []time.Duration // rem[id] is id's key while present
}

func newVictimHeap(workers int) victimHeap {
	h := victimHeap{pos: make([]int, workers), rem: make([]time.Duration, workers)}
	for id := range h.pos {
		h.pos[id] = -1
	}
	return h
}

// top returns the ID with the largest key and that key, or -1.
func (h *victimHeap) top() (int, time.Duration) {
	if len(h.ids) == 0 {
		return -1, 0
	}
	return h.ids[0], h.rem[h.ids[0]]
}

// set files id under key rem, adding it if absent.
func (h *victimHeap) set(id int, rem time.Duration) {
	i := h.pos[id]
	if i < 0 {
		i = len(h.ids)
		h.ids = append(h.ids, id)
		h.pos[id] = i
	}
	h.rem[id] = rem
	h.fix(i)
}

// remove takes id out, if present.
func (h *victimHeap) remove(id int) {
	i := h.pos[id]
	if i < 0 {
		return
	}
	h.pos[id] = -1
	last := len(h.ids) - 1
	if i != last {
		h.ids[i] = h.ids[last]
		h.pos[h.ids[i]] = i
	}
	h.ids = h.ids[:last]
	if i != last {
		h.fix(i)
	}
}

func (h *victimHeap) before(a, b int) bool {
	return h.rem[a] > h.rem[b] || h.rem[a] == h.rem[b] && a < b
}

func (h *victimHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = i
	h.pos[h.ids[j]] = j
}

// fix restores the heap order around index i.
func (h *victimHeap) fix(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.ids[i], h.ids[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	for n := len(h.ids); ; {
		child := 2*i + 1
		if child >= n {
			return
		}
		if right := child + 1; right < n && h.before(h.ids[right], h.ids[child]) {
			child = right
		}
		if !h.before(h.ids[child], h.ids[i]) {
			return
		}
		h.swap(i, child)
		i = child
	}
}
