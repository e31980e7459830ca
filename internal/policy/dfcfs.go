package policy

import (
	"repro/internal/rng"
	"repro/internal/sched"
)

// DFCFS is decentralized first-come-first-served: each worker owns a
// queue and receives a uniform share of arrivals, modelling NIC
// Receive Side Scaling as used by IX and Arrakis. Workers never share
// work, so it exhibits uncontrolled non-work-conservation (idle
// workers coexist with backlogged ones).
type DFCFS struct{ coreAdapter }

// NewDFCFS builds a d-FCFS policy. Arrival steering draws from the
// supplied generator, once per arrival (RSS hashing over many flows is
// effectively uniform). A queueCap of 0 applies DefaultQueueCap;
// negative means unbounded.
func NewDFCFS(r *rng.RNG, queueCap int) *DFCFS {
	return &DFCFS{coreAdapter{conf: coreConfig{Mode: sched.DFCFS, QueueCap: normalizeCap(queueCap), Steer: r.Intn}}}
}

// Name implements cluster.Policy.
func (p *DFCFS) Name() string { return "d-FCFS" }

// Traits implements TraitsProvider.
func (p *DFCFS) Traits() Traits {
	return Traits{AppAware: false, TypedQueues: false, WorkConserving: false, Preemptive: false}
}
