package policy

import (
	"time"

	"repro/internal/cluster"
)

// IngressBottleneck wraps a policy with a serialized dispatcher stage:
// every arriving request passes through a single virtual server with a
// fixed per-request cost before the inner policy sees it. This models
// the centralized-dispatcher capacity real systems hit — the paper
// measured Shinjuku sustaining ≈4.5M requests/second without
// preemption, i.e. a ≈220ns per-request dispatch path — and explains
// why those systems drop packets at loads their scheduling policy
// could otherwise handle.
type IngressBottleneck struct {
	Inner cluster.Policy
	// PerRequest is the dispatcher occupancy per request (e.g. 222ns
	// for a 4.5Mrps dispatcher).
	PerRequest time.Duration
	// QueueCap bounds the dispatcher's ingress queue; beyond it
	// requests are dropped (the "starts dropping packets" regime). 0
	// applies DefaultQueueCap.
	QueueCap int

	m        *cluster.Machine
	busy     bool
	queue    cluster.FIFO
	deferred uint64
	serving  *cluster.Request // in the dispatcher stage while busy
	onServed func()           // built once by Init
}

// Name implements cluster.Policy.
func (p *IngressBottleneck) Name() string { return p.Inner.Name() + "+dispatcher" }

// Traits delegates to the inner policy.
func (p *IngressBottleneck) Traits() Traits {
	if tp, ok := p.Inner.(TraitsProvider); ok {
		return tp.Traits()
	}
	return Traits{}
}

// Init implements cluster.Policy.
func (p *IngressBottleneck) Init(m *cluster.Machine) {
	p.m = m
	p.queue.Cap = normalizeCap(p.QueueCap)
	p.onServed = func() {
		p.Inner.Arrive(p.serving)
		p.serveNext()
	}
	p.Inner.Init(m)
}

// Deferred reports how many requests waited for the dispatcher stage.
func (p *IngressBottleneck) Deferred() uint64 { return p.deferred }

// Arrive implements cluster.Policy: requests serialize through the
// dispatcher stage before reaching the inner policy.
func (p *IngressBottleneck) Arrive(r *cluster.Request) {
	if p.PerRequest <= 0 {
		p.Inner.Arrive(r)
		return
	}
	if !p.queue.Push(r) {
		p.m.RecordDrop(r)
		return
	}
	if !p.busy {
		p.serveNext()
	} else {
		p.deferred++
	}
}

func (p *IngressBottleneck) serveNext() {
	r := p.queue.Pop()
	if r == nil {
		p.busy = false
		return
	}
	p.busy = true
	p.serving = r
	p.m.Sim.After(p.PerRequest, p.onServed)
}

// WorkerFree implements cluster.Policy.
func (p *IngressBottleneck) WorkerFree(w *cluster.Worker) { p.Inner.WorkerFree(w) }

// Completed forwards the completion signal when the inner policy
// observes them.
func (p *IngressBottleneck) Completed(w *cluster.Worker, r *cluster.Request) {
	if co, ok := p.Inner.(cluster.CompletionObserver); ok {
		co.Completed(w, r)
	}
}
