// Package eventq implements the future event list of the discrete-event
// simulator: a min-heap ordered by (time, sequence) so that events
// scheduled for the same instant fire in scheduling order, which keeps
// simulations deterministic. The heap stores each event's sort key
// inline, so sifting compares keys without dereferencing an event. A
// Queue recycles the events handed back to it, so a simulation in
// steady state allocates none.
package eventq

import "time"

// Event is a scheduled callback.
type Event struct {
	At  time.Duration // virtual time at which the event fires
	Seq uint64        // tie-breaker: schedule order
	Fn  func()        // action; never nil for queued events

	index int // heap index; -1 once popped or cancelled, -2 once recycled
}

// entry is one heap slot: the event's sort key, copied inline, and the
// event.
type entry struct {
	at  time.Duration
	seq uint64
	e   *Event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Queue is a future event list. The zero value is ready to use.
// It is not safe for concurrent use; the simulator is single-threaded.
type Queue struct {
	heap []entry
	free []*Event // recycled events, reused by Push
	seq  uint64
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// NextSeq draws the sequence number the next Push would take, for an
// entry the caller orders against this queue itself: compared by (time,
// sequence), it falls exactly where an event pushed now would.
func (q *Queue) NextSeq() uint64 {
	s := q.seq
	q.seq++
	return s
}

// Push schedules fn at the given virtual time and returns the event,
// which may later be passed to Cancel. The event may be one recycled
// earlier; its Seq is always new.
func (q *Queue) Push(at time.Duration, fn func()) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
		e.At, e.Seq, e.Fn = at, q.NextSeq(), fn
	} else {
		e = &Event{At: at, Seq: q.NextSeq(), Fn: fn}
	}
	q.heap = append(q.heap, entry{})
	q.up(len(q.heap)-1, entry{at, e.Seq, e})
	return e
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0].e
	q.remove(0)
	top.index = -1
	return top
}

// Peek returns the earliest event without removing it, or nil.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0].e
}

// Cancel removes a pending event. It reports whether the event was
// still queued; cancelling an already-fired or already-cancelled event
// is a harmless no-op.
func (q *Queue) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index].e != e {
		return false
	}
	q.remove(e.index)
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

// remove takes slot i out of the heap by moving the last entry into it.
func (q *Queue) remove(i int) {
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap[last] = entry{}
	q.heap = q.heap[:last]
	if i == last {
		return
	}
	if i > 0 && moved.before(&q.heap[(i-1)/2]) {
		q.up(i, moved)
	} else {
		q.down(i, moved)
	}
}

// put stores x in slot i and writes the slot back to its event, which
// Cancel reads.
func (q *Queue) put(i int, x entry) {
	q.heap[i] = x
	x.e.index = i
}

// up places x at slot i or above it: parents that sort after x move
// down into the hole.
func (q *Queue) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q.heap[parent]) {
			break
		}
		q.put(i, q.heap[parent])
		i = parent
	}
	q.put(i, x)
}

// down places x at slot i or below it: the smaller child moves up into
// the hole while it sorts before x.
func (q *Queue) down(i int, x entry) {
	n := len(q.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.heap[right].before(&q.heap[child]) {
			child = right
		}
		if !q.heap[child].before(&x) {
			break
		}
		q.put(i, q.heap[child])
		i = child
	}
	q.put(i, x)
}
