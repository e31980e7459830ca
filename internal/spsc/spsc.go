// Package spsc provides the lock-free inter-core communication
// primitives the live Perséphone runtime is built on: a
// single-producer/single-consumer ring with Barrelfish-style lazy head
// synchronization (the paper's §4.3.2 "lightweight RPC" channel), a
// multi-producer/single-consumer ring backing the shared network
// buffer pool (§4.3.1), and the Parker on which the consumer of either
// sleeps when there is nothing to take (the paper's consumers poll a
// core of their own instead; DESIGN.md, substitutions).
package spsc

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// pad keeps hot fields on separate cache lines to avoid false sharing
// between the producer and consumer cores.
type pad [64]byte

// Ring is a bounded single-producer/single-consumer queue. Exactly one
// goroutine may call Put/TryPut and exactly one may call Get/TryGet.
//
// Following the paper's design, the producer keeps a local copy of the
// consumer's read position and refreshes it from the shared atomic
// only when its local view says the ring is full, minimizing cache
// coherence traffic on the fast path.
type Ring[T any] struct {
	buf  []T
	mask uint64
	park *Parker // where Get sleeps; every TryPut wakes it

	_    pad
	head atomic.Uint64 // next slot to write (owned by producer)
	_    pad
	tail atomic.Uint64 // next slot to read (owned by consumer)
	_    pad

	// cachedTail is the producer's local view of tail.
	cachedTail uint64
	_          pad
	// cachedHead is the consumer's local view of head.
	cachedHead uint64
}

// NewRing creates a ring with the given capacity, rounded up to a
// power of two (minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 2 {
		capacity = 2
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring[T]{buf: make([]T, size), mask: uint64(size - 1), park: NewParker()}
}

// Cap reports the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// TryPut appends v and reports whether there was room. Producer-only.
func (r *Ring[T]) TryPut(v T) bool {
	head := r.head.Load()
	if head-r.cachedTail >= uint64(len(r.buf)) {
		// Local view says full: refresh from the shared tail (the
		// only coherence miss on this path).
		r.cachedTail = r.tail.Load()
		if head-r.cachedTail >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[head&r.mask] = v
	r.head.Store(head + 1)
	r.park.Wake()
	return true
}

// Put appends v, yielding to the consumer for as long as the ring is
// full. Producer-only.
func (r *Ring[T]) Put(v T) {
	for !r.TryPut(v) {
		runtime.Gosched()
	}
}

// TryGet removes the oldest element. Consumer-only.
func (r *Ring[T]) TryGet() (T, bool) {
	var zero T
	tail := r.tail.Load()
	if tail == r.cachedHead {
		r.cachedHead = r.head.Load()
		if tail == r.cachedHead {
			return zero, false
		}
	}
	v := r.buf[tail&r.mask]
	r.buf[tail&r.mask] = zero // release references for GC
	r.tail.Store(tail + 1)
	return v, true
}

// Get removes the oldest element, parking (see Parker) until one
// exists. Consumer-only.
func (r *Ring[T]) Get() T {
	for {
		if v, ok := r.TryGet(); ok {
			r.park.Busy()
			return v
		}
		r.park.Idle()
	}
}

// Len reports the number of queued elements (approximate under
// concurrency).
func (r *Ring[T]) Len() int {
	return int(r.head.Load() - r.tail.Load())
}

// Empty reports whether the ring appears empty.
func (r *Ring[T]) Empty() bool { return r.Len() == 0 }

// MPSC is a bounded multi-producer/single-consumer queue used for the
// shared buffer free list: every worker releases buffers, the net
// worker allocates them.
type MPSC[T any] struct {
	buf  []slot[T]
	mask uint64
	_    pad
	head atomic.Uint64
	_    pad
	tail atomic.Uint64
}

type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewMPSC creates a multi-producer ring with the given capacity,
// rounded up to a power of two (minimum 2).
func NewMPSC[T any](capacity int) *MPSC[T] {
	if capacity < 2 {
		capacity = 2
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	q := &MPSC[T]{buf: make([]slot[T], size), mask: uint64(size - 1)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Cap reports the ring's capacity.
func (q *MPSC[T]) Cap() int { return len(q.buf) }

// TryPut appends v from any producer and reports whether there was
// room (Vyukov bounded MPMC algorithm, restricted to one consumer).
func (q *MPSC[T]) TryPut(v T) bool {
	for {
		head := q.head.Load()
		s := &q.buf[head&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == head:
			if q.head.CompareAndSwap(head, head+1) {
				s.val = v
				s.seq.Store(head + 1)
				return true
			}
		case seq < head:
			return false // full
		}
		// Another producer won the slot; retry.
	}
}

// TryPutBatch appends a prefix of vs with a single head reservation
// (one CAS for the whole burst instead of one per element) and
// reports how many elements were accepted. Slots free up in
// consumption order, so a free last slot implies the whole range is
// free; the scan walks the candidate length down until that holds.
// Safe for any producer; the net workers use it to hand a burst of
// datagrams to the dispatcher in one ring synchronization.
func (q *MPSC[T]) TryPutBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	for {
		head := q.head.Load()
		n := len(vs)
		if n > len(q.buf) {
			n = len(q.buf)
		}
		// Shrink the claim until its last slot is writable.
		for n > 0 {
			s := &q.buf[(head+uint64(n)-1)&q.mask]
			seq := s.seq.Load()
			if seq == head+uint64(n)-1 {
				break
			}
			if seq > head+uint64(n)-1 {
				// Another producer already advanced past this head
				// snapshot; retry with a fresh one.
				n = -1
				break
			}
			n--
		}
		if n < 0 {
			continue // stale head snapshot
		}
		if n == 0 {
			return 0 // full
		}
		if !q.head.CompareAndSwap(head, head+uint64(n)) {
			continue // lost the race for these slots
		}
		for i := 0; i < n; i++ {
			s := &q.buf[(head+uint64(i))&q.mask]
			s.val = vs[i]
			s.seq.Store(head + uint64(i) + 1)
		}
		return n
	}
}

// TryGet removes the oldest element. Single consumer only.
func (q *MPSC[T]) TryGet() (T, bool) {
	var zero T
	tail := q.tail.Load()
	s := &q.buf[tail&q.mask]
	seq := s.seq.Load()
	if seq != tail+1 {
		return zero, false
	}
	v := s.val
	s.val = zero
	s.seq.Store(tail + uint64(len(q.buf)))
	q.tail.Store(tail + 1)
	return v, true
}

// Len reports the approximate number of queued elements.
func (q *MPSC[T]) Len() int {
	h, t := q.head.Load(), q.tail.Load()
	if h < t {
		return 0
	}
	return int(h - t)
}

// String describes the ring for debugging.
func (q *MPSC[T]) String() string {
	return fmt.Sprintf("mpsc{cap=%d len=%d}", q.Cap(), q.Len())
}
