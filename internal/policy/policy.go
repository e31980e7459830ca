// Package policy implements every scheduling discipline the paper
// simulates or compares against (Tables 1 and 5): decentralized and
// centralized FCFS, Shenango-style work stealing, Shinjuku-style
// preemptive time sharing (single-queue, multi-queue/BVT, and the
// idealized variant of Figure 10), non-preemptive fixed priority,
// oracle SJF, DARC and DARC-static.
//
// All policies plug into cluster.Machine via the cluster.Policy
// interface and are engine-driven: the machine reports arrivals and
// worker availability, the policy queues and dispatches.
package policy

import "repro/internal/cluster"

// DefaultQueueCap bounds each queue a policy creates, so overload
// sheds requests (recorded as drops) instead of growing memory without
// bound — mirroring both Shinjuku's packet drops under overload and
// Perséphone's per-type flow control.
const DefaultQueueCap = 65536

// normalizeCap maps a constructor's queueCap to a queue bound: 0
// applies DefaultQueueCap, negative means unbounded.
func normalizeCap(c int) int {
	switch {
	case c == 0:
		return DefaultQueueCap
	case c < 0:
		return 0 // cluster.FIFO treats 0 as unbounded
	default:
		return c
	}
}

// Traits describes a policy for the paper's taxonomy tables.
type Traits struct {
	// AppAware: the policy uses request types.
	AppAware bool
	// TypedQueues: requests wait in per-type queues.
	TypedQueues bool
	// WorkConserving: no worker idles while any compatible request
	// waits anywhere.
	WorkConserving bool
	// Preemptive: the policy interrupts running requests.
	Preemptive bool
}

// TraitsProvider is implemented by all policies in this package.
type TraitsProvider interface {
	Traits() Traits
}

// pushOrDrop enforces a queue bound, recording a drop on overflow.
func pushOrDrop(m *cluster.Machine, q *cluster.FIFO, r *cluster.Request) {
	if !q.Push(r) {
		m.RecordDrop(r)
	}
}
