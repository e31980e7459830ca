package policy

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/sched"
)

// DARC adapts the darc.Controller (profiler + Algorithm 1/2) to the
// simulated machine through the scheduling core. Requests wait in
// typed queues served in ascending profiled-service-time order; each
// type runs on its group's reserved cores and may steal cores reserved
// for longer groups; unknown requests use spillway cores (any idle
// core, after every typed queue, when there are none). Until the first
// profiling window completes, the policy behaves as c-FCFS (the
// paper's startup phase).
type DARC struct {
	coreAdapter
	ctl *darc.Controller
	cfg darc.Config

	// OnReservationUpdate, when set before Init, observes every
	// reservation change with the virtual time it took effect
	// (Figure 7's core-allocation track).
	OnReservationUpdate func(now time.Duration, res *darc.Reservation)
}

// NewDARC builds the policy for numTypes request types. cfg.Workers is
// overwritten from the machine at Init. A queueCap of 0 applies
// DefaultQueueCap; negative means unbounded.
func NewDARC(cfg darc.Config, numTypes, queueCap int) *DARC {
	p := &DARC{cfg: cfg}
	p.conf = coreConfig{Mode: sched.DARC, NumTypes: numTypes, QueueCap: normalizeCap(queueCap), Take: p.runHead}
	return p
}

// Tune edits the configuration Init builds the controller from; call
// it before Init.
func (p *DARC) Tune(edit func(*darc.Config)) { edit(&p.cfg) }

// Name implements cluster.Policy.
func (p *DARC) Name() string { return "DARC" }

// Traits implements TraitsProvider.
func (p *DARC) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: true, WorkConserving: false, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *DARC) Init(m *cluster.Machine) {
	p.cfg.Workers = len(m.Workers)
	ctl, err := darc.NewController(p.cfg, p.conf.NumTypes)
	if err != nil {
		panic(err) // config was validated by the experiment setup
	}
	p.ctl = ctl
	if p.OnReservationUpdate != nil {
		ctl.OnUpdate = func(res *darc.Reservation) {
			p.OnReservationUpdate(p.m.Sim.Now(), res)
		}
	}
	p.conf.Controller = ctl
	p.coreAdapter.Init(m)
}

// Controller exposes the DARC controller for experiments (reservation
// snapshots, update counts, Figure 7's core-allocation track).
func (p *DARC) Controller() *darc.Controller { return p.ctl }

// Completed implements cluster.CompletionObserver: the worker's
// completion signal feeds the profiler and may trigger a reservation
// update.
func (p *DARC) Completed(w *cluster.Worker, r *cluster.Request) {
	p.ctl.Observe(r.Type, r.Service)
	p.ctl.MaybeUpdate()
}

// runHead is the core's hand-off: the head of q starts on worker w,
// and the profiler sees how long it queued.
func (p *DARC) runHead(q *cluster.FIFO, w int) bool {
	r := q.Pop()
	p.ctl.NoteQueueDelay(r.Type, p.m.Sim.Now()-r.Arrival)
	p.m.Run(p.m.Workers[w], r)
	return true
}

// QueuedRequests reports the total backlog across all typed queues
// (the allocator's pressure signal: DARC deliberately idles reserved
// cores, so average utilization alone under-reports demand).
func (p *DARC) QueuedRequests() int { return p.core.Queued() }
