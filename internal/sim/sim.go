// Package sim is a single-threaded discrete-event simulation engine
// with a nanosecond-resolution virtual clock. Components schedule
// callbacks at virtual instants; the engine fires them in (time,
// schedule-order) order, so runs are fully deterministic.
package sim

import (
	"fmt"
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

// Cancel unschedules a pending callback. It reports false, and changes
// nothing, if the callback already fired or was cancelled.
func (s *Sim) Cancel(h Handle) bool {
	if !h.Pending() || !s.events.Cancel(h.e) {
		return false
	}
	s.events.Recycle(h.e)
	return true
}

// Step fires the next event and reports whether one existed. The event
// is recycled before its callback runs, so the callback's own
// scheduling reuses it.
func (s *Sim) Step() bool {
	e := s.events.Pop()
	if e == nil {
		return false
	}
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
	for !s.halted {
		e := s.events.Peek()
		if e == nil || e.At > horizon {
			break
		}
		s.Step()
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

// Pending reports the number of scheduled events.
func (s *Sim) Pending() int { return s.events.Len() }
