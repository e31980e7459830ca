package darc

import "time"

// typeProfile tracks one request type inside the profiler.
type typeProfile struct {
	// ewma is the long-running moving average of service time in
	// nanoseconds (the paper's "moving average of service time").
	ewma float64
	// windowCount counts completions observed in the current profiling
	// window (the paper's occurrence counter).
	windowCount uint64
	// totalCount counts completions across the whole run.
	totalCount uint64
}

// Profiler maintains per-type service-time moving averages and
// occurrence ratios over profiling windows (§3, "Profiling the
// workload and updating reservations"). The dispatcher feeds it a
// sample on every work-completion signal.
type Profiler struct {
	alpha   float64
	types   []typeProfile
	window  uint64 // completions in current window across all types
	unknown uint64 // completions of unclassified requests
	// observed counts classified completions across the run: every
	// moving average moves only when it does.
	observed uint64
}

// NewProfiler creates a profiler for n types with the given EWMA
// weight for new samples.
func NewProfiler(n int, alpha float64) *Profiler {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.05
	}
	return &Profiler{alpha: alpha, types: make([]typeProfile, n)}
}

// NumTypes reports the number of tracked types.
func (p *Profiler) NumTypes() int { return len(p.types) }

// Observe records a completed request's measured service time.
// Unknown-typed requests are counted but do not contribute to any
// type's profile.
func (p *Profiler) Observe(typ int, service time.Duration) {
	p.window++
	if typ < 0 || typ >= len(p.types) {
		p.unknown++
		return
	}
	t := &p.types[typ]
	if t.totalCount == 0 {
		t.ewma = float64(service)
	} else {
		t.ewma += p.alpha * (float64(service) - t.ewma)
	}
	t.windowCount++
	t.totalCount++
	p.observed++
}

// WindowSamples reports how many completions the current window has
// accumulated.
func (p *Profiler) WindowSamples() uint64 { return p.window }

// MeanService reports the current moving-average service time for a
// type (0 if never observed).
func (p *Profiler) MeanService(typ int) time.Duration {
	if typ < 0 || typ >= len(p.types) {
		return 0
	}
	return time.Duration(p.types[typ].ewma)
}

// Snapshot produces the per-type statistics for a reservation
// computation: EWMA service time and the occurrence ratio within the
// current window. Types never seen in the window keep ratio 0 (their
// group still receives at least one core by Algorithm 2's minimum).
func (p *Profiler) Snapshot() []TypeStats {
	stats := make([]TypeStats, len(p.types))
	classified := p.window - p.unknown
	for i := range p.types {
		stats[i].Mean = time.Duration(p.types[i].ewma)
		if classified > 0 {
			stats[i].Ratio = float64(p.types[i].windowCount) / float64(classified)
		}
	}
	return stats
}

// Rotate starts a new profiling window: occurrence counters reset, the
// service-time moving averages carry over.
func (p *Profiler) Rotate() {
	for i := range p.types {
		p.types[i].windowCount = 0
	}
	p.window = 0
	p.unknown = 0
}
