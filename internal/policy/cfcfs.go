package policy

import "repro/internal/sched"

// CFCFS is centralized first-come-first-served: a single queue feeds
// every worker, the discipline ZygOS and Shenango approximate with
// work stealing and the baseline Perséphone exposes before DARC's
// first reservation. On the scheduling core it has no typed queue, so
// every arrival waits on the one UNKNOWN queue.
type CFCFS struct{ coreAdapter }

// NewCFCFS builds a c-FCFS policy. A queueCap of 0 applies
// DefaultQueueCap; negative means unbounded.
func NewCFCFS(queueCap int) *CFCFS {
	return &CFCFS{coreAdapter{conf: coreConfig{Mode: sched.CFCFS, QueueCap: normalizeCap(queueCap)}}}
}

// Name implements cluster.Policy.
func (p *CFCFS) Name() string { return "c-FCFS" }

// Traits implements TraitsProvider.
func (p *CFCFS) Traits() Traits {
	return Traits{AppAware: false, TypedQueues: false, WorkConserving: true, Preemptive: false}
}

// QueueLen reports the central backlog.
func (p *CFCFS) QueueLen() int { return p.core.Queued() }
