package policy

import (
	"time"

	"repro/internal/cluster"
)

// EDF is non-preemptive Earliest-Deadline-First (Table 5): each
// request's absolute deadline is its arrival plus a per-type relative
// deadline (here: SLOFactor × the type's static mean service time),
// and the pending request with the earliest deadline runs next. As the
// paper notes, EDF can suffer priority inversion when deadlines don't
// track service times.
type EDF struct {
	m     *cluster.Machine
	queue *requestHeap
	// relDeadline holds per-type relative deadlines.
	relDeadline []time.Duration
}

// NewEDF builds the policy: each type's relative deadline is sloFactor
// times its mean service time (index = type ID). A queueCap of 0
// applies DefaultQueueCap; negative means unbounded.
func NewEDF(meanService []time.Duration, sloFactor float64, queueCap int) *EDF {
	if sloFactor <= 0 {
		sloFactor = 10
	}
	rel := make([]time.Duration, len(meanService))
	for i, s := range meanService {
		rel[i] = time.Duration(float64(s) * sloFactor)
	}
	p := &EDF{relDeadline: rel}
	p.queue = newRequestHeap(normalizeCap(queueCap), p.deadlineFor)
	return p
}

// Name implements cluster.Policy.
func (p *EDF) Name() string { return "EDF" }

// Traits implements TraitsProvider.
func (p *EDF) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: false, WorkConserving: true, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *EDF) Init(m *cluster.Machine) { p.m = m }

func (p *EDF) deadlineFor(r *cluster.Request) time.Duration {
	t := r.Type
	if t < 0 || t >= len(p.relDeadline) {
		t = len(p.relDeadline) - 1
	}
	return r.Arrival + p.relDeadline[t]
}

// Arrive implements cluster.Policy.
func (p *EDF) Arrive(r *cluster.Request) {
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
func (p *EDF) WorkerFree(w *cluster.Worker) {
	if r := p.queue.Pop(); r != nil {
		p.m.Run(w, r)
	}
}
