package policy

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
)

// WorkStealing models Shenango/ZygOS: RSS steers arrivals to
// per-worker queues and idle workers steal from backlogged peers,
// approximating c-FCFS at the cost of cross-core coordination. The
// paper's "Shenango c-FCFS" baseline is this policy.
type WorkStealing struct {
	m      *cluster.Machine
	queues []cluster.FIFO
	r      *rng.RNG
	cap    int
	// StealCost is the cross-worker coordination charge per steal.
	StealCost time.Duration
	steals    uint64
	run       func(w *cluster.Worker, r *cluster.Request) // m.Run, bound once
}

// NewWorkStealing builds the policy. stealCost models the cross-core
// handoff (Shenango's steal path costs on the order of 100ns).
func NewWorkStealing(r *rng.RNG, queueCap int, stealCost time.Duration) *WorkStealing {
	return &WorkStealing{r: r, cap: normalizeCap(queueCap), StealCost: stealCost}
}

// Name implements cluster.Policy.
func (p *WorkStealing) Name() string { return "work-stealing" }

// Traits implements TraitsProvider.
func (p *WorkStealing) Traits() Traits {
	return Traits{AppAware: false, TypedQueues: false, WorkConserving: true, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *WorkStealing) Init(m *cluster.Machine) {
	p.m = m
	p.run = m.Run
	p.queues = make([]cluster.FIFO, len(m.Workers))
	for i := range p.queues {
		p.queues[i].Cap = p.cap
	}
}

// Steals reports how many requests were stolen across workers.
func (p *WorkStealing) Steals() uint64 { return p.steals }

// Arrive implements cluster.Policy: RSS steering, then — because idle
// workers continuously poll for stealable work — an idle worker picks
// the request up immediately if the home worker is busy.
func (p *WorkStealing) Arrive(r *cluster.Request) {
	home := p.r.Intn(len(p.queues))
	w := p.m.Workers[home]
	if w.Idle() && p.queues[home].Empty() {
		p.m.Run(w, r)
		return
	}
	pushOrDrop(p.m, &p.queues[home], r)
	// A spinning idle worker steals the freshly queued request.
	for _, other := range p.m.Workers {
		if other.ID != home && other.Idle() {
			p.stealInto(other)
			return
		}
	}
}

// WorkerFree implements cluster.Policy.
func (p *WorkStealing) WorkerFree(w *cluster.Worker) {
	if r := p.queues[w.ID].Pop(); r != nil {
		p.m.Run(w, r)
		return
	}
	p.stealInto(w)
}

// stealInto makes idle worker w take work from a backlogged victim,
// paying StealCost before the request runs.
func (p *WorkStealing) stealInto(w *cluster.Worker) {
	victim := -1
	start := p.r.Intn(len(p.queues))
	for i := 0; i < len(p.queues); i++ {
		idx := (start + i) % len(p.queues)
		if idx != w.ID && !p.queues[idx].Empty() {
			victim = idx
			break
		}
	}
	if victim < 0 {
		return
	}
	r := p.queues[victim].Pop()
	p.steals++
	// Overhead occupies w for the steal window, so no other dispatch
	// can race onto it; the stolen request then runs.
	p.m.Overhead(w, p.StealCost, r, p.run)
}
