package spsc

import "sync/atomic"

// SpinBeforePark is how many consecutive empty polls a consumer makes
// before it announces and parks. A poll is tens of nanoseconds, so the
// spin covers a producer that is mid-publish on another core (the
// back-to-back case the paper's busy-polling loop serves) and costs
// about a microsecond when nothing comes; a park and its wake-up cost
// a few microseconds, and anything longer spent spinning is CPU taken
// from the goroutines that have work whenever the host has fewer cores
// than goroutines. It is a constant on purpose: there is no field,
// flag or timed fallback behind it.
const SpinBeforePark = 32

// Parker is the one wake-up primitive behind every hand-off in the
// live runtime: a single consumer sleeps on it until a producer has
// published work, without polling and without a timer.
//
// The consumer calls Idle after every poll pass that found nothing and
// Busy after every pass that found something:
//
//	for {
//		if pollEverySource() { p.Busy(); continue }
//		p.Idle()
//	}
//
// Idle spins for SpinBeforePark passes, then announces (one atomic
// store) and returns so that the caller's next pass re-checks every
// source, and only after that pass also came up empty blocks. A
// producer publishes first and calls Wake second; Wake is one atomic
// load unless the consumer has announced. Go's atomics are
// sequentially consistent, so either the consumer's re-check sees the
// publication or the producer's load sees the announcement: a wake-up
// cannot be lost. Wake-ups can be spurious (a token left by a producer
// that raced a cancelled announcement), which the poll loop absorbs.
//
// Any number of goroutines may call Wake; exactly one may call Idle
// and Busy.
type Parker struct {
	_      pad
	parked atomic.Bool   // consumer has announced and not yet been woken
	sema   chan struct{} // capacity 1: at most one wake-up is ever owed

	_ pad
	// idle counts the consumer's consecutive empty passes: up to
	// SpinBeforePark it is spinning, one past that it has announced.
	// Consumer-owned, on its own cache line so spinning does not
	// invalidate the line producers read.
	idle int
	_    pad
}

// NewParker returns a Parker with nobody parked.
func NewParker() *Parker {
	return &Parker{sema: make(chan struct{}, 1)}
}

// Idle records an empty poll pass: spin, then announce, then block
// until a producer calls Wake. Consumer-only.
func (p *Parker) Idle() {
	switch {
	case p.idle < SpinBeforePark:
		p.idle++
	case p.idle == SpinBeforePark:
		p.idle++
		p.parked.Store(true)
	default:
		<-p.sema
		// A stale token leaves the announcement standing; withdraw it so
		// producers stop signalling a consumer that is awake.
		p.parked.Store(false)
		p.idle = 0
	}
}

// Busy records a poll pass that found work, withdrawing a standing
// announcement. Consumer-only.
func (p *Parker) Busy() {
	if p.idle == 0 {
		return
	}
	if p.idle > SpinBeforePark {
		p.parked.Store(false)
	}
	p.idle = 0
}

// Wake unparks the consumer if it has announced. Producers call it
// after publishing; it never blocks and is safe from any goroutine.
// The swap elects one signaller per announcement, and the send cannot
// block because a token already in the channel wakes the consumer just
// as well.
func (p *Parker) Wake() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		select {
		case p.sema <- struct{}{}:
		default:
		}
	}
}
