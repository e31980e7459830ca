// Package eventq implements the future event list of the discrete-event
// simulator: a binary min-heap ordered by (time, sequence) so that
// events scheduled for the same instant fire in scheduling order, which
// keeps simulations deterministic. A Queue recycles the events handed
// back to it, so a simulation in steady state allocates none.
package eventq

import "time"

// Event is a scheduled callback.
type Event struct {
	At  time.Duration // virtual time at which the event fires
	Seq uint64        // tie-breaker: schedule order
	Fn  func()        // action; never nil for queued events

	index int // heap index; -1 once popped or cancelled, -2 once recycled
}

// Queue is a future event list. The zero value is ready to use.
// It is not safe for concurrent use; the simulator is single-threaded.
type Queue struct {
	heap []*Event
	free []*Event // recycled events, reused by Push
	seq  uint64
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at the given virtual time and returns the event,
// which may later be passed to Cancel. The event may be one recycled
// earlier; its Seq is always new.
func (q *Queue) Push(at time.Duration, fn func()) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
		e.At, e.Seq, e.Fn = at, q.seq, fn
	} else {
		e = &Event{At: at, Seq: q.seq, Fn: fn}
	}
	q.seq++
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.index)
	return e
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// Peek returns the earliest event without removing it, or nil.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Cancel removes a pending event. It reports whether the event was
// still queued; cancelling an already-fired or already-cancelled event
// is a harmless no-op.
func (q *Queue) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index] != e {
		return false
	}
	i := e.index
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		if !q.down(i) {
			q.up(i)
		}
	}
	e.index = -1
	return true
}

// Recycle hands a popped or cancelled event back for reuse by a later
// Push. The caller must hold no other reference it will use: the
// pointer may come back from Push naming a different event. Recycling
// a queued or already recycled event is a no-op.
func (q *Queue) Recycle(e *Event) {
	if e.index != -1 {
		return
	}
	e.Fn = nil
	e.index = -2
	q.free = append(q.free, e)
}

// Queued reports whether e is still waiting in a queue: not yet popped
// or cancelled.
func (e *Event) Queued() bool { return e.index >= 0 }

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts index i downward and reports whether it moved.
func (q *Queue) down(i int) bool {
	start := i
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
	return i > start
}
