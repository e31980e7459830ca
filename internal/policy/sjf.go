package policy

import (
	"time"

	"repro/internal/cluster"
)

// SJF is non-preemptive shortest-job-first with oracle knowledge of
// each request's exact service time (Table 5 lists it as requiring
// information a real µs-scale scheduler cannot have; it serves as a
// reference point in ablation experiments).
type SJF struct {
	m     *cluster.Machine
	queue *requestHeap
}

// NewSJF builds the policy. A queueCap of 0 applies DefaultQueueCap;
// negative means unbounded.
func NewSJF(queueCap int) *SJF {
	return &SJF{queue: newRequestHeap(normalizeCap(queueCap), func(r *cluster.Request) time.Duration {
		return r.Service
	})}
}

// Name implements cluster.Policy.
func (p *SJF) Name() string { return "SJF" }

// Traits implements TraitsProvider.
func (p *SJF) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: false, WorkConserving: true, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *SJF) Init(m *cluster.Machine) { p.m = m }

// Arrive implements cluster.Policy.
func (p *SJF) Arrive(r *cluster.Request) {
	for _, w := range p.m.Workers {
		if w.Idle() {
			p.m.Run(w, r)
			return
		}
	}
	if !p.queue.Push(r) {
		p.m.RecordDrop(r)
	}
}

// WorkerFree implements cluster.Policy.
func (p *SJF) WorkerFree(w *cluster.Worker) {
	if r := p.queue.Pop(); r != nil {
		p.m.Run(w, r)
	}
}
