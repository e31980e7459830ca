package darc

import (
	"sync/atomic"
	"time"
)

// Controller ties the profiler, the reservation algorithm and the
// update triggers together. Both the simulator policy and the live
// dispatcher drive a Controller:
//
//   - on every completion, call Observe;
//   - on every dispatch, call NoteQueueDelay with the request's
//     queueing delay, then MaybeUpdate;
//   - consult Reservation (nil during the c-FCFS startup window) and
//     DispatchOrder to pick work.
//
// The controller's mutating methods are not safe for concurrent use;
// the dispatcher is a single thread of control in both engines. The
// Reservation and Updates accessors ARE safe from any goroutine (they
// back stats endpoints and tests that watch a live dispatcher).
type Controller struct {
	cfg  Config
	prof *Profiler
	// res and updates are written only by the dispatcher thread but
	// read from arbitrary goroutines, hence atomic.
	res     atomic.Pointer[Reservation]
	updates atomic.Uint64

	pressure     bool
	lastSnapshot []TypeStats
	// order is DispatchOrder's result, reused across calls; it was
	// sorted when the profiler had observed orderAt completions.
	order   []int
	orderAt uint64

	// desiredSpillway remembers the configured spillway width so a
	// Resize down to a tiny pool (where that many spillway cores would
	// leave no schedulable workers) can clamp to zero and a later
	// Resize back up can restore it.
	desiredSpillway int

	// OnUpdate, when non-nil, is invoked after every reservation
	// change with the new reservation (used by experiments to log core
	// allocations over time, Figure 7).
	OnUpdate func(*Reservation)
}

// NewController creates a controller for numTypes request types.
func NewController(cfg Config, numTypes int) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:             cfg,
		prof:            NewProfiler(numTypes, cfg.EWMAAlpha),
		desiredSpillway: cfg.Spillway,
		order:           make([]int, numTypes),
	}
	// With no completion observed every mean is 0, and the stable
	// sort of equal means is type order.
	for i := range c.order {
		c.order[i] = i
	}
	return c, nil
}

// Config returns the controller's effective configuration (with
// defaults filled in).
func (c *Controller) Config() Config { return c.cfg }

// Profiler exposes the underlying profiler (read-mostly, for reports).
func (c *Controller) Profiler() *Profiler { return c.prof }

// Reservation returns the active reservation, or nil while the system
// is still in its c-FCFS startup window.
func (c *Controller) Reservation() *Reservation { return c.res.Load() }

// Updates reports how many reservation updates have been applied.
func (c *Controller) Updates() uint64 { return c.updates.Load() }

// Observe records a completed request's measured service time.
func (c *Controller) Observe(typ int, service time.Duration) {
	c.prof.Observe(typ, service)
}

// NoteQueueDelay feeds the dispatcher's queueing-delay signal: if a
// request waited longer than QueueDelaySLO times its type's average
// service time, the controller arms the update check.
func (c *Controller) NoteQueueDelay(typ int, delay time.Duration) {
	mean := c.prof.MeanService(typ)
	if mean <= 0 {
		return
	}
	if float64(delay) > c.cfg.QueueDelaySLO*float64(mean) {
		c.pressure = true
	}
}

// MeanService reports the profiled moving-average service time for a
// type.
func (c *Controller) MeanService(typ int) time.Duration {
	return c.prof.MeanService(typ)
}

// MaybeUpdate applies the paper's update rule and reports whether the
// reservation changed:
//
//   - the first reservation is installed as soon as the startup window
//     reaches MinWindowSamples (ending the c-FCFS phase);
//   - later updates additionally require queueing-delay pressure and a
//     CPU-demand deviation of at least DemandDeviation.
func (c *Controller) MaybeUpdate() bool {
	if c.prof.WindowSamples() < c.cfg.MinWindowSamples {
		return false
	}
	cur := c.res.Load()
	if cur != nil && !c.pressure {
		return false
	}
	// Snapshot allocates, so it is taken only once an update is possible.
	snapshot := c.prof.Snapshot()
	if cur != nil {
		if !DemandDeviates(cur.Demands, demandsOf(snapshot), c.cfg.DemandDeviation) {
			// Pressure without a composition change: stay put, but
			// keep watching (do not clear pressure so the next window
			// can still react).
			c.prof.Rotate()
			return false
		}
	}
	res, err := ComputeReservation(snapshot, c.cfg)
	if err != nil {
		// Degenerate snapshot (e.g. zero demand); keep the previous
		// reservation and retry next window.
		c.prof.Rotate()
		return false
	}
	c.res.Store(res)
	c.lastSnapshot = snapshot
	c.pressure = false
	c.updates.Add(1)
	c.prof.Rotate()
	if c.OnUpdate != nil {
		c.OnUpdate(res)
	}
	return true
}

// Resize changes the worker population the controller reserves over —
// the paper's §6 "DARC can cooperate with an allocator to obtain and
// release cores, adapting to load changes and updating reservations
// during such events". If a profile exists, the reservation is
// recomputed immediately; it reports whether a new reservation was
// installed.
func (c *Controller) Resize(workers int) (bool, error) {
	cfg := c.cfg
	cfg.Workers = workers
	cfg.Spillway = c.desiredSpillway
	if cfg.Spillway >= workers {
		// The configured spillway would consume the whole (shrunken)
		// pool; run without designated spillway cores until the pool
		// grows back.
		cfg.Spillway = 0
	}
	if err := cfg.fill(); err != nil {
		return false, err
	}
	c.cfg = cfg
	if c.prof.WindowSamples() == 0 && c.res.Load() == nil {
		// Still in the startup window with no samples: nothing to
		// recompute yet.
		return false, nil
	}
	if c.ForceUpdate() {
		return true, nil
	}
	// The current window may be empty (just rotated); recompute from
	// the last snapshot so a stale reservation never references
	// workers beyond the new population.
	if c.lastSnapshot != nil {
		if res, err := ComputeReservation(c.lastSnapshot, c.cfg); err == nil {
			c.res.Store(res)
			c.updates.Add(1)
			if c.OnUpdate != nil {
				c.OnUpdate(res)
			}
			return true, nil
		}
	}
	return false, nil
}

// ForceUpdate recomputes the reservation from the current window
// regardless of triggers (used by tests and by operators via the CLI).
func (c *Controller) ForceUpdate() bool {
	snapshot := c.prof.Snapshot()
	res, err := ComputeReservation(snapshot, c.cfg)
	if err != nil {
		return false
	}
	c.res.Store(res)
	c.lastSnapshot = snapshot
	c.pressure = false
	c.updates.Add(1)
	c.prof.Rotate()
	if c.OnUpdate != nil {
		c.OnUpdate(res)
	}
	return true
}

// DispatchOrder returns type IDs sorted by ascending profiled service
// time — the order Algorithm 1 scans typed queues in. Unknown types
// are not included (the caller services the UNKNOWN queue on spillway
// cores last). The slice is the controller's own scratch, sorted in
// place so that a dispatcher pass allocates nothing. Only a completion
// moves a mean, so it is sorted again only when the profiler has
// observed one since the last sort. It is valid until the next call
// and, like the mutating methods, for the dispatcher thread only;
// callers must not modify it.
func (c *Controller) DispatchOrder() []int {
	order := c.order
	if c.orderAt == c.prof.observed {
		return order
	}
	c.orderAt = c.prof.observed
	for i := range order {
		order[i] = i
	}
	// Insertion sort by profiled mean: n is small (request types, not
	// requests) and the order is stable.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && c.prof.MeanService(order[j]) < c.prof.MeanService(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

func demandsOf(stats []TypeStats) []float64 {
	var total float64
	for _, s := range stats {
		total += float64(s.Mean) * s.Ratio
	}
	d := make([]float64, len(stats))
	if total <= 0 {
		return d
	}
	for i, s := range stats {
		d[i] = float64(s.Mean) * s.Ratio / total
	}
	return d
}
