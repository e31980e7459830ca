package policy

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// DARCStatic is the paper's §5.3 manual ablation ("DARC-static"): the
// first Reserved workers are dedicated to the statically shortest
// request type; short requests are scheduled first and may execute on
// every core, longer types only on the non-reserved cores. With
// Reserved == 0 it degenerates to FixedPriority. Dispatch runs on the
// scheduling core's DARC-static pass.
type DARCStatic struct {
	coreAdapter
	Reserved int
}

// NewDARCStatic builds the policy: meanService gives the static
// per-type service times (index = type ID), reserved the number of
// cores dedicated to the shortest type.
func NewDARCStatic(meanService []time.Duration, reserved, queueCap int) *DARCStatic {
	return &DARCStatic{coreAdapter{conf: coreConfig{
		Mode:        sched.DARCStatic,
		NumTypes:    len(meanService),
		QueueCap:    normalizeCap(queueCap),
		StaticMeans: meanService,
	}}, reserved}
}

// Name implements cluster.Policy.
func (p *DARCStatic) Name() string {
	return fmt.Sprintf("DARC-static(%d)", p.Reserved)
}

// Traits implements TraitsProvider.
func (p *DARCStatic) Traits() Traits {
	return Traits{AppAware: true, TypedQueues: true, WorkConserving: p.Reserved == 0, Preemptive: false}
}

// Init implements cluster.Policy.
func (p *DARCStatic) Init(m *cluster.Machine) {
	if p.Reserved < 0 || p.Reserved > len(m.Workers) {
		panic(fmt.Sprintf("policy: DARC-static reserved %d out of range for %d workers", p.Reserved, len(m.Workers)))
	}
	p.conf.StaticReserved = p.Reserved
	p.coreAdapter.Init(m)
}
