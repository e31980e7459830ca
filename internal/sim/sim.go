// Package sim is a single-threaded discrete-event simulation engine
// with a nanosecond-resolution virtual clock. Components schedule
// callbacks at virtual instants; the engine fires them in (time,
// schedule-order) order, so runs are fully deterministic. One callback
// at a time, the stream, may live outside the event heap: an open-loop
// arrival process that always has exactly one arrival pending costs no
// heap push or pop.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eventq"
)

// Time is a virtual instant, expressed as the duration since the start
// of the simulation.
type Time = time.Duration

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    Time
	events eventq.Queue
	fired  uint64
	halted bool

	// The stream's pending callback (nil when none) and its (time,
	// sequence) key, the sequence drawn from the heap's own counter.
	streamFn  func()
	streamAt  Time
	streamSeq uint64
}

// New returns an empty simulator at virtual time zero.
func New() *Sim { return &Sim{} }

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Fired reports how many events have executed, a cheap progress and
// cost measure for experiments.
func (s *Sim) Fired() uint64 { return s.fired }

// Handle names one scheduled callback so that it can be cancelled. The
// engine recycles an event once it has fired or been cancelled, so a
// bare *eventq.Event stops naming its callback at that point; a Handle
// also carries the event's sequence number, which a recycled event never
// repeats, and so stays safe to use for ever. The zero Handle names
// nothing.
type Handle struct {
	e   *eventq.Event
	seq uint64
}

// Pending reports whether the callback is still scheduled: it has
// neither fired nor been cancelled.
func (h Handle) Pending() bool { return h.e != nil && h.e.Seq == h.seq && h.e.Queued() }

// At schedules fn to run at virtual time t. Scheduling in the past
// (before Now) panics: it always indicates a modelling bug.
func (s *Sim) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.events.Push(t, fn)
	return Handle{e, e.Seq}
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Stream schedules fn to run at virtual time t as the simulator's one
// stream callback. It fires in exactly the order At(t, fn) would give
// it, against every other callback, but it is not cancellable and at
// most one may be pending: scheduling a second (or one in the past)
// panics. The stream is meant for an arrival process whose callback
// schedules its successor.
func (s *Sim) Stream(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling stream at %v before now %v", t, s.now))
	}
	if s.streamFn != nil {
		panic("sim: stream already pending")
	}
	s.streamFn, s.streamAt, s.streamSeq = fn, t, s.events.NextSeq()
}

// Cancel unschedules a pending callback. It reports false, and changes
// nothing, if the callback already fired or was cancelled.
func (s *Sim) Cancel(h Handle) bool {
	if !h.Pending() || !s.events.Cancel(h.e) {
		return false
	}
	s.events.Recycle(h.e)
	return true
}

// Step fires the next callback and reports whether one existed.
func (s *Sim) Step() bool { return s.stepUntil(math.MaxInt64) }

// stepUntil fires the next callback if it is due at or before horizon
// and reports whether it did. A heap event is recycled before its
// callback runs, so the callback's own scheduling reuses it.
func (s *Sim) stepUntil(horizon Time) bool {
	e := s.events.Peek()
	if fn := s.streamFn; fn != nil && (e == nil || s.streamAt < e.At || s.streamAt == e.At && s.streamSeq < e.Seq) {
		if s.streamAt > horizon {
			return false
		}
		s.streamFn = nil
		s.now = s.streamAt
		s.fired++
		fn()
		return true
	}
	if e == nil || e.At > horizon {
		return false
	}
	s.events.Pop()
	s.now = e.At
	s.fired++
	fn := e.Fn
	s.events.Recycle(e)
	fn()
	return true
}

// RunUntil fires events until the queue is empty or the next event is
// strictly after the horizon; the clock is then advanced to the
// horizon. Components may keep scheduling (for example, an open-loop
// arrival process schedules its successor from within its own event),
// so the horizon is the only termination condition for steady-state
// experiments.
func (s *Sim) RunUntil(horizon Time) {
	s.halted = false
	for !s.halted && s.stepUntil(horizon) {
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run fires events until none remain or Halt is called.
func (s *Sim) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (s *Sim) Halt() { s.halted = true }

// Pending reports the number of scheduled callbacks, the stream's
// included.
func (s *Sim) Pending() int {
	if s.streamFn != nil {
		return s.events.Len() + 1
	}
	return s.events.Len()
}
