package spsc

import "sync/atomic"

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
// The first Idle announces (one atomic store) and returns, so that the
// caller's next pass re-checks every source; only when that pass also
// came up empty does the second Idle block. There is no spin phase: Go's
// scheduler already spins an idle P looking for runnable goroutines, so
// a user-space spin would only take cycles from the goroutine being
// waited for whenever the host has fewer cores than goroutines. A
// producer publishes first and calls Wake second; Wake is one atomic
// load unless the consumer has announced. Go's atomics are sequentially
// consistent, so either the consumer's re-check sees the publication or
// the producer's load sees the announcement: a wake-up cannot be lost.
// Wake-ups can be spurious (a token left by a producer that raced a
// cancelled announcement), which the poll loop absorbs.
//
// Any number of goroutines may call Wake; exactly one may call Idle
// and Busy.
type Parker struct {
	_      pad
	parked atomic.Bool   // consumer has announced and not yet been woken
	sema   chan struct{} // capacity 1: at most one wake-up is ever owed

	_ pad
	// announced is the consumer's own record that it has announced since
	// its last pass that found work. Consumer-owned, on its own cache
	// line so the consumer's writes do not invalidate the line producers
	// read.
	announced bool
	_         pad
}

// NewParker returns a Parker with nobody parked.
func NewParker() *Parker {
	return &Parker{sema: make(chan struct{}, 1)}
}

// Idle records an empty poll pass: the first announces, the next
// blocks until a producer calls Wake. Consumer-only.
func (p *Parker) Idle() {
	if !p.announced {
		p.announced = true
		p.parked.Store(true)
		return
	}
	<-p.sema
	// A stale token leaves the announcement standing; withdraw it so
	// producers stop signalling a consumer that is awake.
	p.parked.Store(false)
	p.announced = false
}

// Busy records a poll pass that found work, withdrawing a standing
// announcement. Consumer-only.
func (p *Parker) Busy() {
	if p.announced {
		p.parked.Store(false)
		p.announced = false
	}
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
