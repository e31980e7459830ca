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
	m        *cluster.Machine
	ctl      *darc.Controller
	core     *sched.Core[*cluster.Request]
	cfg      darc.Config
	numTypes int
	cap      int

	// OnReservationUpdate, when set before Init, observes every
	// reservation change with the virtual time it took effect
	// (Figure 7's core-allocation track).
	OnReservationUpdate func(now time.Duration, res *darc.Reservation)
}

// NewDARC builds the policy for numTypes request types. cfg.Workers is
// overwritten from the machine at Init. A queueCap of 0 applies
// DefaultQueueCap; negative means unbounded.
func NewDARC(cfg darc.Config, numTypes, queueCap int) *DARC {
	return &DARC{cfg: cfg, numTypes: numTypes, cap: normalizeCap(queueCap)}
}

// Name implements cluster.Policy.
func (p *DARC) Name() string { return "DARC" }

// Traits implements TraitsProvider.
func (p *DARC) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: true, WorkConserving: false, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *DARC) Init(m *cluster.Machine) {
	p.m = m
	p.cfg.Workers = len(m.Workers)
	ctl, err := darc.NewController(p.cfg, p.numTypes)
	if err != nil {
		panic(err) // config was validated by the experiment setup
	}
	p.ctl = ctl
	if p.OnReservationUpdate != nil {
		ctl.OnUpdate = func(res *darc.Reservation) {
			p.OnReservationUpdate(p.m.Sim.Now(), res)
		}
	}
	p.core = newCore(m, sched.Config[*cluster.Request]{
		Mode:       sched.DARC,
		NumTypes:   p.numTypes,
		QueueCap:   p.cap,
		Controller: ctl,
		Take:       p.runHead,
	})
}

// newCore builds a scheduling core over m's workers with the simulated
// request's accessors filled in.
func newCore(m *cluster.Machine, cfg sched.Config[*cluster.Request]) *sched.Core[*cluster.Request] {
	cfg.Workers = len(m.Workers)
	cfg.Arrival = func(r *cluster.Request) time.Duration { return r.Arrival }
	cfg.Type = func(r *cluster.Request) int { return r.Type }
	return sched.New(cfg)
}

// arrive queues r (recording a drop when its queue is full) and
// dispatches.
func arrive(m *cluster.Machine, core *sched.Core[*cluster.Request], r *cluster.Request) {
	if !core.Push(r.Type, r) {
		m.RecordDrop(r)
	}
	core.Dispatch()
}

// Controller exposes the DARC controller for experiments (reservation
// snapshots, update counts, Figure 7's core-allocation track).
func (p *DARC) Controller() *darc.Controller { return p.ctl }

// Arrive implements cluster.Policy.
func (p *DARC) Arrive(r *cluster.Request) { arrive(p.m, p.core, r) }

// WorkerFree implements cluster.Policy.
func (p *DARC) WorkerFree(w *cluster.Worker) {
	p.core.Release(w.ID)
	p.core.Dispatch()
}

// Completed implements cluster.CompletionObserver: the worker's
// completion signal feeds the profiler and may trigger a reservation
// update.
func (p *DARC) Completed(w *cluster.Worker, r *cluster.Request) {
	p.ctl.Observe(r.Type, r.Service)
	p.ctl.MaybeUpdate()
}

// runHead is the core's hand-off: the head of q starts on worker w.
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
