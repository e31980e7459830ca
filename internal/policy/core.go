package policy

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// coreConfig configures the scheduling core over simulated requests.
type coreConfig = sched.Config[*cluster.Request]

// coreAdapter is the cluster.Policy half every policy on the scheduling
// core shares (DARC, DARCStatic, CFCFS, DFCFS, FixedPriority): such a
// policy is a core configuration, and the adapter builds the core over
// the machine, queues each arrival on it and hands it every freed
// worker, so the core makes each dispatch decision.
type coreAdapter struct {
	conf coreConfig
	m    *cluster.Machine
	core *sched.Core[*cluster.Request]
}

// Init implements cluster.Policy: it builds the core from conf over
// m's workers. A nil conf.Take runs the head of the queue the core
// names on the worker it names.
func (a *coreAdapter) Init(m *cluster.Machine) {
	a.m = m
	cfg := a.conf
	cfg.Workers = len(m.Workers)
	cfg.Arrival = func(r *cluster.Request) time.Duration { return r.Arrival }
	cfg.Type = func(r *cluster.Request) int { return r.Type }
	if cfg.Take == nil {
		cfg.Take = func(q *cluster.FIFO, w int) bool {
			m.Run(m.Workers[w], q.Pop())
			return true
		}
	}
	a.core = sched.New(cfg)
}

// Arrive implements cluster.Policy: r is queued (recorded as a drop
// when its queue is full) and the core dispatches.
func (a *coreAdapter) Arrive(r *cluster.Request) {
	if !a.core.Push(r.Type, r) {
		a.m.RecordDrop(r)
	}
	a.core.Dispatch()
}

// WorkerFree implements cluster.Policy.
func (a *coreAdapter) WorkerFree(w *cluster.Worker) {
	a.core.Release(w.ID)
	a.core.Dispatch()
}
