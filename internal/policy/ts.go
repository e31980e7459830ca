package policy

import (
	"time"

	"repro/internal/cluster"
)

// TSConfig parameterises the Shinjuku-style preemptive time-sharing
// policies.
type TSConfig struct {
	// Quantum is the preemption interval (Shinjuku: 5µs for bimodal
	// workloads, 10-15µs for milder ones).
	Quantum time.Duration
	// PreemptCost is charged to the worker at every actual preemption
	// (the paper measured ≈1µs per interrupt, ~2000 cycles at 2GHz).
	PreemptCost time.Duration
	// QueueCap bounds each queue (0 → DefaultQueueCap, negative →
	// unbounded). Shinjuku drops packets under overload.
	QueueCap int
}

func (c *TSConfig) fill() {
	if c.Quantum <= 0 {
		c.Quantum = 5 * time.Microsecond
	}
	c.QueueCap = normalizeCap(c.QueueCap)
}

// TSSingleQueue is Shinjuku's single-queue policy: one central queue,
// a fixed preemption quantum, preempted requests re-enqueued at the
// tail. Used by the paper for Extreme Bimodal.
type TSSingleQueue struct {
	cfg         TSConfig
	m           *cluster.Machine
	queue       cluster.FIFO
	preemptions uint64

	// sliceEnd and requeue bound once, so a dispatch allocates nothing.
	onSliceEnd, onPreempted func(w *cluster.Worker, r *cluster.Request)
}

// NewTSSingleQueue builds the policy.
func NewTSSingleQueue(cfg TSConfig) *TSSingleQueue {
	cfg.fill()
	return &TSSingleQueue{cfg: cfg, queue: cluster.FIFO{Cap: cfg.QueueCap}}
}

// Name implements cluster.Policy.
func (p *TSSingleQueue) Name() string { return "TS-single" }

// Traits implements TraitsProvider.
func (p *TSSingleQueue) Traits() Traits {
	return Traits{AppAware: false, TypedQueues: false, WorkConserving: true, Preemptive: true}
}

// Init implements cluster.Policy.
func (p *TSSingleQueue) Init(m *cluster.Machine) {
	p.m = m
	p.onSliceEnd, p.onPreempted = p.sliceEnd, p.requeue
}

// Preemptions reports how many interrupts actually fired.
func (p *TSSingleQueue) Preemptions() uint64 { return p.preemptions }

// Arrive implements cluster.Policy.
func (p *TSSingleQueue) Arrive(r *cluster.Request) {
	for _, w := range p.m.Workers {
		if w.Idle() {
			p.m.RunSlice(w, r, p.cfg.Quantum, p.onSliceEnd)
			return
		}
	}
	pushOrDrop(p.m, &p.queue, r)
}

// WorkerFree implements cluster.Policy.
func (p *TSSingleQueue) WorkerFree(w *cluster.Worker) {
	if r := p.queue.Pop(); r != nil {
		p.m.RunSlice(w, r, p.cfg.Quantum, p.onSliceEnd)
	}
}

// sliceEnd fires when a request exhausts its quantum unfinished. If no
// other request waits, the request resumes for another quantum free of
// charge (Shinjuku's dispatcher only interrupts when queued work
// exists); otherwise the worker pays the preemption cost, the request
// goes to the tail, and the worker takes the head.
func (p *TSSingleQueue) sliceEnd(w *cluster.Worker, r *cluster.Request) {
	if p.queue.Empty() {
		p.m.RunSlice(w, r, p.cfg.Quantum, p.onSliceEnd)
		return
	}
	r.Preemptions++
	p.preemptions++
	p.m.Overhead(w, p.cfg.PreemptCost, r, p.onPreempted)
}

// requeue re-enqueues a preempted request at the tail once the
// preemption cost is paid; an overflowing tail re-enqueue would lose an
// admitted request, so it bypasses the cap.
func (p *TSSingleQueue) requeue(w *cluster.Worker, r *cluster.Request) {
	if !p.queue.Push(r) {
		p.queue.PushFront(r)
	}
	p.WorkerFree(w)
}
