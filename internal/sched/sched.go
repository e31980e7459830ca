// Package sched is the scheduling core: the one place a dispatch
// decision is made, shared by the simulator's DARC, DARC-static,
// c-FCFS, d-FCFS and fixed-priority policies and by the live
// dispatcher. It owns the typed, UNKNOWN and per-worker queues, the
// free-worker set and the active-pool bound, and it decides which
// queue's head goes to which idle worker under the four dispatch modes
// (DARC with its c-FCFS startup window, c-FCFS, d-FCFS and
// DARC-static; fixed priority is DARC-static with no reserved worker).
//
// The core is pure bookkeeping: it reads no clock, starts no
// goroutine, takes no lock and does no I/O, and a dispatch pass
// allocates nothing. Time, admission and the hand-off itself belong to
// the caller, through the hooks in Config: the core names a (queue,
// worker) pair and the caller's Take pops the head.
//
// The package also holds the one policy vocabulary (Spec): the name
// and arguments by which the simulator, the live server and its
// reconfiguration plane select a policy.
package sched

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/darc"
)

// Mode selects the dispatch discipline.
type Mode int

const (
	// DARC runs Algorithm 1 over the controller's reservation, and
	// c-FCFS while the controller is still in its startup window.
	DARC Mode = iota
	// CFCFS is centralized first-come-first-served over every queue.
	CFCFS
	// DFCFS gives each worker a private queue that arrivals are steered
	// to; workers never share work.
	DFCFS
	// DARCStatic is the paper's §5.3 manual ablation: the statically
	// shortest type runs anywhere, every other type only on workers at
	// or above the static reservation.
	DARCStatic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CFCFS:
		return "c-FCFS"
	case DFCFS:
		return "d-FCFS"
	case DARCStatic:
		return "DARC-static"
	}
	return "DARC"
}

// Reserver is DARC's view of its controller: the order Algorithm 1
// scans types in, the reservation (nil during the startup window), and
// the hook that recomputes it for a resized pool. *darc.Controller
// implements it.
type Reserver interface {
	DispatchOrder() []int
	Reservation() *darc.Reservation
	Resize(workers int) (bool, error)
}

// Config assembles a Core over items of type T (the caller's request).
type Config[T any] struct {
	Mode     Mode
	NumTypes int
	Workers  int
	// QueueCap bounds every queue the core creates (0 = unbounded).
	QueueCap int
	// Controller supplies DARC's dispatch order and reservation and is
	// resized with the pool. Required in DARC mode, nil allowed
	// otherwise.
	Controller Reserver
	// StaticMeans and StaticReserved configure DARC-static (see
	// SetStatic); ignored when StaticMeans is empty.
	StaticMeans    []time.Duration
	StaticReserved int

	// Arrival and Type read an item's arrival instant (the FCFS
	// tie-break and the migration order) and its request type.
	Arrival func(T) time.Duration
	Type    func(T) int
	// Take pops the head of q and hands it to worker w, reporting
	// whether w received an item. It must pop at least once; it may
	// discard heads (admission shedding) before it finds one to hand
	// over, or empty q without handing anything over.
	Take func(q *FIFO[T], w int) bool
	// Steer draws the d-FCFS worker in [0, n) for the next arrival.
	// Required only when DFCFS is used.
	Steer func(n int) int
}

// Core is the scheduling state machine. It is not safe for concurrent
// use: one thread of control (the simulator's event loop, the live
// dispatcher) drives it.
type Core[T any] struct {
	mode Mode
	ctl  Reserver

	typed     []FIFO[T]
	unknown   FIFO[T]
	perWorker []FIFO[T]
	queueCap  int

	// free has bit w set while worker w has nothing in flight. It spans
	// every slot the pool ever had; only [0, active) is schedulable, so
	// a stale reservation naming a retired worker is never dispatched
	// to. idle counts the free schedulable workers: at zero no pass can
	// move anything, and Dispatch skips the scan.
	free   []uint64
	active int
	idle   int

	// masks holds reservation maskRes as bitsets over free's words: for
	// each type its reserved workers, then the ones it may steal; last
	// UNKNOWN's pair, the spillway and nothing. A new reservation is a
	// new pointer, so the masks are rebuilt in place only when the
	// pointer changes or the pool outgrows them.
	masks   []uint64
	maskRes *darc.Reservation

	staticOrder    []int // type IDs by ascending static mean; [0] is protected
	staticReserved int

	arrival func(T) time.Duration
	typeOf  func(T) int
	take    func(q *FIFO[T], w int) bool
	steer   func(n int) int
}

// New builds a core with every worker idle.
func New[T any](cfg Config[T]) *Core[T] {
	c := &Core[T]{
		mode:     cfg.Mode,
		ctl:      cfg.Controller,
		typed:    make([]FIFO[T], cfg.NumTypes),
		unknown:  FIFO[T]{Cap: cfg.QueueCap},
		queueCap: cfg.QueueCap,
		arrival:  cfg.Arrival,
		typeOf:   cfg.Type,
		take:     cfg.Take,
		steer:    cfg.Steer,
	}
	for i := range c.typed {
		c.typed[i].Cap = cfg.QueueCap
	}
	c.grow(cfg.Workers)
	c.active, c.idle = cfg.Workers, cfg.Workers
	if len(cfg.StaticMeans) > 0 {
		c.SetStatic(cfg.StaticMeans, cfg.StaticReserved)
	}
	return c
}

// Mode reports the current dispatch mode.
func (c *Core[T]) Mode() Mode { return c.mode }

// Active reports the schedulable pool size.
func (c *Core[T]) Active() int { return c.active }

// Idle reports whether worker w has nothing in flight.
func (c *Core[T]) Idle(w int) bool { return c.free[w>>6]&(1<<(w&63)) != 0 }

// Release returns worker w to the free set (its request completed). A
// slot at or above the active bound stays unschedulable until a grow.
func (c *Core[T]) Release(w int) {
	if !c.Idle(w) && w < c.active {
		c.idle++
	}
	c.free[w>>6] |= 1 << (w & 63)
}

// StaticReserved reports how many workers DARC-static protects.
func (c *Core[T]) StaticReserved() int { return c.staticReserved }

// Typed returns type t's queue.
func (c *Core[T]) Typed(t int) *FIFO[T] { return &c.typed[t] }

// Unknown returns the UNKNOWN queue.
func (c *Core[T]) Unknown() *FIFO[T] { return &c.unknown }

// Queued reports the backlog across every queue.
func (c *Core[T]) Queued() int {
	n := c.unknown.Len()
	for i := range c.typed {
		n += c.typed[i].Len()
	}
	for i := range c.perWorker {
		n += c.perWorker[i].Len()
	}
	return n
}

// Push queues an arrival of type typ: on its typed queue (UNKNOWN when
// typ is out of range) or, under d-FCFS, on the worker queue Steer
// draws. It reports false when that queue is full; the caller sheds.
func (c *Core[T]) Push(typ int, v T) bool { return c.target(typ).Push(v) }

func (c *Core[T]) target(typ int) *FIFO[T] {
	if c.mode == DFCFS {
		return &c.perWorker[c.steer(c.active)]
	}
	if typ >= 0 && typ < len(c.typed) {
		return &c.typed[typ]
	}
	return &c.unknown
}

// Dispatch runs passes until one moves nothing and reports whether any
// did. A DARC or DARC-static pass takes at most one request per queue,
// so types interleave across passes exactly as Algorithm 1 loops. One
// d-FCFS pass is always enough.
func (c *Core[T]) Dispatch() bool {
	moved := false
	switch {
	case c.mode == DFCFS:
		moved = c.idle > 0 && c.passDFCFS()
	case c.mode == DARCStatic:
		for c.idle > 0 && c.passStatic() {
			moved = true
		}
	case c.mode == DARC && c.ctl.Reservation() != nil:
		// Only completions change the profile and the reservation, so
		// one read of each serves every pass.
		res, order := c.ctl.Reservation(), c.ctl.DispatchOrder()
		for c.idle > 0 && c.passDARC(res, order) {
			moved = true
		}
	default:
		for c.idle > 0 && c.stepFCFS() {
			moved = true
		}
	}
	return moved
}

// assign offers q's head to idle worker w and reports whether q moved
// (a hand-off or a discarded head).
func (c *Core[T]) assign(q *FIFO[T], w int) bool {
	n := q.Len()
	if c.take(q, w) {
		c.free[w>>6] &^= 1 << (w & 63)
		c.idle--
	}
	return q.Len() != n
}

// stepFCFS hands the earliest queued arrival — a strict < over typed
// queue heads in type order, UNKNOWN last — to the lowest idle worker.
// It looks for the arrival first: the step that ends a dispatch
// usually finds the queues empty, and then never scans the free set.
func (c *Core[T]) stepFCFS() bool {
	var q *FIFO[T]
	for i := range c.typed {
		if !c.typed[i].Empty() && (q == nil || c.arrival(c.typed[i].Peek()) < c.arrival(q.Peek())) {
			q = &c.typed[i]
		}
	}
	if !c.unknown.Empty() && (q == nil || c.arrival(c.unknown.Peek()) < c.arrival(q.Peek())) {
		q = &c.unknown
	}
	if q == nil {
		return false
	}
	w := c.idleFrom(0)
	if w < 0 {
		return false
	}
	return c.assign(q, w)
}

// passDARC is one pass of Algorithm 1: typed queues in ascending
// profiled service time, each on its group's reserved workers and then
// the ones it may steal, and UNKNOWN last on the spillway. Without
// spillway workers UNKNOWN runs on any idle worker, still after every
// typed queue, so it drains instead of starving.
func (c *Core[T]) passDARC(res *darc.Reservation, order []int) bool {
	if res != c.maskRes {
		c.buildMasks(res)
	}
	moved := false
	for _, t := range order {
		q := &c.typed[t]
		if q.Empty() {
			continue
		}
		if w := c.idleFor(t); w >= 0 && c.assign(q, w) {
			moved = true
		}
	}
	if !c.unknown.Empty() {
		w := c.idleFor(len(c.typed))
		if w < 0 && len(res.SpillwayWorkers) == 0 {
			w = c.idleFrom(0)
		}
		if w >= 0 && c.assign(&c.unknown, w) {
			moved = true
		}
	}
	return moved
}

// passDFCFS hands each idle worker the head of its own queue, walking
// the free set once. A worker's queue feeds no other worker, and Take
// either occupies the worker or empties its queue, so a second pass
// could move nothing.
func (c *Core[T]) passDFCFS() bool {
	moved := false
	for i, x := range c.free {
		for ; x != 0; x &= x - 1 {
			w := i<<6 + bits.TrailingZeros64(x)
			if w >= c.active {
				return moved
			}
			if !c.perWorker[w].Empty() && c.assign(&c.perWorker[w], w) {
				moved = true
			}
		}
	}
	return moved
}

// passStatic scans typed queues in ascending static mean: the shortest
// type runs on any idle worker, the others (and UNKNOWN, last) only on
// workers at or above the static reservation.
func (c *Core[T]) passStatic() bool {
	moved := false
	for i, t := range c.staticOrder {
		q := &c.typed[t]
		if q.Empty() {
			continue
		}
		lo := c.staticReserved
		if i == 0 {
			lo = 0
		}
		if w := c.idleFrom(lo); w >= 0 && c.assign(q, w) {
			moved = true
		}
	}
	if !c.unknown.Empty() {
		if w := c.idleFrom(c.staticReserved); w >= 0 && c.assign(&c.unknown, w) {
			moved = true
		}
	}
	return moved
}

// idleFrom returns the lowest idle active worker with ID >= lo, or -1.
func (c *Core[T]) idleFrom(lo int) int {
	for i := lo >> 6; i < len(c.free); i++ {
		x := c.free[i]
		if i == lo>>6 {
			x &= ^uint64(0) << (lo & 63)
		}
		if x != 0 {
			return c.schedulable(i<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// idleFor returns the lowest idle active worker reserved for type t,
// else the lowest one t may steal, or -1; t == len(c.typed) names
// UNKNOWN, whose reserved workers are the spillway. ComputeReservation
// lists workers in ascending ID order, so the lowest idle ID is the
// first idle worker each list names.
func (c *Core[T]) idleFor(t int) int {
	nw := len(c.free)
	for _, m := range [2][]uint64{c.masks[2*t*nw:], c.masks[(2*t+1)*nw:]} {
		for i, f := range c.free {
			if x := f & m[i]; x != 0 {
				if w := c.schedulable(i<<6 + bits.TrailingZeros64(x)); w >= 0 {
					return w
				}
				break
			}
		}
	}
	return -1
}

// schedulable returns w if it is below the active bound, else -1. Scans
// go up in ID, so no idle worker of the set after w is below it either.
func (c *Core[T]) schedulable(w int) int {
	if w >= c.active {
		return -1
	}
	return w
}

// buildMasks caches res in c.masks, reusing its storage. Workers past
// the free set's words have never existed, so they are left out.
func (c *Core[T]) buildMasks(res *darc.Reservation) {
	nw := len(c.free)
	clear(c.masks)
	set := func(slot int, ids []int) {
		for _, w := range ids {
			if w>>6 < nw {
				c.masks[slot*nw+(w>>6)] |= 1 << (w & 63)
			}
		}
	}
	for t := range c.typed {
		set(2*t, res.ReservedFor(t))
		set(2*t+1, res.StealableFor(t))
	}
	set(2*len(c.typed), res.SpillwayWorkers)
	c.maskRes = res
}

// SetStatic installs DARC-static's per-type means (the scan order) and
// reservation. len(means) must equal the type count.
func (c *Core[T]) SetStatic(means []time.Duration, reserved int) {
	order := make([]int, len(c.typed))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return means[order[a]] < means[order[b]] })
	c.staticOrder = order
	c.staticReserved = reserved
}

// SetMode swaps the dispatch mode. A swap between the central queues
// and d-FCFS's per-worker queues migrates every queued item in arrival
// order; it returns how many moved and the overflow the target queues
// had no room for, which the caller must shed.
func (c *Core[T]) SetMode(m Mode) (moved int, overflow []T) {
	if m == c.mode {
		return 0, nil
	}
	var all []T
	if (c.mode == DFCFS) != (m == DFCFS) {
		c.Drain(func(v T) { all = append(all, v) })
	}
	c.mode = m
	return c.requeue(all)
}

// Resize moves the active bound to n workers. Growing adds idle slots
// past any the pool ever had; shrinking re-steers the retired workers'
// d-FCFS backlogs over the survivors (returning what moved and the
// overflow to shed, as SetMode). The controller recomputes its
// reservation over the new pool, and a DARC-static reservation
// covering the whole pool is clamped to leave one worker unreserved.
// Slots at or above n keep their free bit; the caller retires them.
func (c *Core[T]) Resize(n int) (moved int, overflow []T, err error) {
	c.grow(n)
	old := c.active
	c.active, c.idle = n, 0
	for w := 0; w < n; w++ {
		if c.Idle(w) {
			c.idle++
		}
	}
	if c.mode == DFCFS && n < old {
		var orphans []T
		for w := n; w < old; w++ {
			drain(&c.perWorker[w], func(v T) { orphans = append(orphans, v) })
		}
		moved, overflow = c.requeue(orphans)
	}
	if c.ctl != nil {
		_, err = c.ctl.Resize(n)
	}
	if c.mode == DARCStatic && c.staticReserved >= n {
		// A reserved prefix covering the whole pool would starve every
		// non-short type, not just slow it down.
		c.staticReserved = n - 1
	}
	return moved, overflow, err
}

// Drain empties every queue through fn: typed queues in type order,
// then the per-worker queues, then UNKNOWN.
func (c *Core[T]) Drain(fn func(T)) {
	for i := range c.typed {
		drain(&c.typed[i], fn)
	}
	for i := range c.perWorker {
		drain(&c.perWorker[i], fn)
	}
	drain(&c.unknown, fn)
}

func drain[T any](q *FIFO[T], fn func(T)) {
	for !q.Empty() {
		fn(q.Pop())
	}
}

// grow extends the per-worker state to n slots, new slots idle. A new
// word of the free set resizes the mask storage and marks it stale.
func (c *Core[T]) grow(n int) {
	for w := len(c.perWorker); w < n; w++ {
		if w>>6 == len(c.free) {
			c.free = append(c.free, 0)
			c.masks = make([]uint64, 2*(len(c.typed)+1)*len(c.free))
			c.maskRes = nil
		}
		c.free[w>>6] |= 1 << (w & 63)
		c.perWorker = append(c.perWorker, FIFO[T]{Cap: c.queueCap})
	}
}

// requeue pushes items in arrival order onto the queues the current
// mode routes them to.
func (c *Core[T]) requeue(vs []T) (moved int, overflow []T) {
	sort.SliceStable(vs, func(a, b int) bool { return c.arrival(vs[a]) < c.arrival(vs[b]) })
	for _, v := range vs {
		if c.target(c.typeOf(v)).Push(v) {
			moved++
		} else {
			overflow = append(overflow, v)
		}
	}
	return moved, overflow
}
