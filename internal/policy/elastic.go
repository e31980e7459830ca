package policy

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
)

// ElasticDARC implements the paper's §6 sketch of DARC cooperating
// with a core allocator: the machine exposes Max workers, but the
// policy only uses an elastic subset. A periodic allocator measures
// utilization over the active set and grows it under pressure /
// shrinks it when idle; every resize is the scheduling core's Resize,
// the operation the live server's reconfiguration uses too, so the
// active bound moves and reservations are recomputed for the new
// population (releasing the highest-numbered cores back to the
// datacenter).
type ElasticDARC struct {
	*DARC
	// Min/Max bound the active worker count (Max defaults to the
	// machine size, Min to 1).
	Min, Max int
	// Interval is the allocator's decision period (default 10ms).
	Interval time.Duration
	// HighWater grows the allocation when interval utilization
	// exceeds it (default 0.85); LowWater shrinks below it (default
	// 0.50).
	HighWater, LowWater float64
	// OnResize, when set, observes allocation changes.
	OnResize func(now time.Duration, active int)

	active   int
	prevBusy time.Duration
	resizes  uint64

	// debugTick, when set, observes every allocator decision (tests).
	debugTick func(now time.Duration, util float64, active int)
}

// NewElasticDARC builds the policy; cfg/numTypes/queueCap as NewDARC.
func NewElasticDARC(cfg darc.Config, numTypes, queueCap int) *ElasticDARC {
	return &ElasticDARC{DARC: NewDARC(cfg, numTypes, queueCap)}
}

// Name implements cluster.Policy.
func (p *ElasticDARC) Name() string { return "DARC-elastic" }

// Resizes reports how many allocation changes occurred.
func (p *ElasticDARC) Resizes() uint64 { return p.resizes }

// Active reports the current active worker count.
func (p *ElasticDARC) Active() int { return p.active }

// Init implements cluster.Policy.
func (p *ElasticDARC) Init(m *cluster.Machine) {
	p.DARC.Init(m)
	if p.Max <= 0 || p.Max > len(m.Workers) {
		p.Max = len(m.Workers)
	}
	if p.Min <= 0 {
		p.Min = 1
	}
	// The controller needs at least one non-spillway worker.
	if spill := p.cfg.Spillway; p.Min < spill+1 {
		p.Min = spill + 1
	}
	if p.Min > p.Max {
		p.Min = p.Max
	}
	if p.Interval <= 0 {
		p.Interval = 10 * time.Millisecond
	}
	if p.HighWater <= 0 || p.HighWater > 1 {
		p.HighWater = 0.85
	}
	if p.LowWater <= 0 || p.LowWater >= p.HighWater {
		p.LowWater = 0.50
	}
	// Start mid-range so both growth and shrink are observable.
	p.applyActive((p.Min + p.Max) / 2)
	m.Sim.After(p.Interval, p.tick)
}

func (p *ElasticDARC) applyActive(n int) {
	if n < p.Min {
		n = p.Min
	}
	if n > p.Max {
		n = p.Max
	}
	if n == p.active {
		return
	}
	p.active = n
	// Resize never fails for n in [Min,Max] with spillway < n; a
	// failure would mean the config allows more spillway cores than
	// workers, which DefaultConfig prevents.
	if _, _, err := p.core.Resize(n); err != nil {
		panic(err)
	}
	p.resizes++
	if p.OnResize != nil {
		p.OnResize(p.m.Sim.Now(), n)
	}
	// Newly granted workers can pick up queued work immediately.
	p.core.Dispatch()
}

// tick is the allocator: measure the active set's utilization over the
// last interval and adjust.
func (p *ElasticDARC) tick() {
	var busy time.Duration
	for _, w := range p.m.Workers {
		busy += w.BusyTime()
	}
	delta := busy - p.prevBusy
	p.prevBusy = busy
	util := float64(delta) / (float64(p.Interval) * float64(p.active))
	if p.debugTick != nil {
		p.debugTick(p.m.Sim.Now(), util, p.active)
	}
	// DARC deliberately idles reserved cores, so average utilization
	// under-reports demand; sustained queue backlog is the second
	// pressure signal.
	backlog := p.QueuedRequests()
	switch {
	case (util > p.HighWater || backlog > 2*p.active) && p.active < p.Max:
		p.applyActive(p.active + 1)
	case util < p.LowWater && backlog == 0 && p.active > p.Min:
		p.applyActive(p.active - 1)
	}
	p.m.Sim.After(p.Interval, p.tick)
}
