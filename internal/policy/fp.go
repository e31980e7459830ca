package policy

import "time"

// FixedPriority is non-preemptive fixed-priority scheduling over typed
// queues: queues are served in ascending (static) service-time order
// on any idle worker. It is work conserving, so short requests still
// suffer dispersion-based head-of-line blocking once all workers are
// occupied by long ones — the failure mode DARC's reservations remove.
// On the scheduling core it is DARC-static with no reserved worker.
type FixedPriority struct{ coreAdapter }

// NewFixedPriority builds the policy from the per-type mean service
// times (index = type ID); smaller means higher priority.
func NewFixedPriority(meanService []time.Duration, queueCap int) *FixedPriority {
	return &FixedPriority{NewDARCStatic(meanService, 0, queueCap).coreAdapter}
}

// Name implements cluster.Policy.
func (p *FixedPriority) Name() string { return "fixed-priority" }

// Traits implements TraitsProvider.
func (p *FixedPriority) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: true, WorkConserving: true, Preemptive: false}
}
