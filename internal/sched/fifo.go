package sched

// FIFO is a bounded first-come-first-served queue backed by a growable
// circular buffer. The core keeps one per request type, one for
// UNKNOWN and one per worker; the simulator's other policies use it as
// cluster.FIFO. A Cap of 0 means unbounded.
type FIFO[T any] struct {
	// buf's length is 0 or a power of two (grow starts at 16 and
	// doubles), so an index wraps with a mask instead of a division.
	buf   []T
	head  int
	count int
	// Cap bounds the queue; pushes beyond it fail so the caller can
	// shed load (the paper's flow control drops from full typed
	// queues).
	Cap int
}

// Len reports queued items.
func (q *FIFO[T]) Len() int { return q.count }

// Empty reports whether the queue has no items.
func (q *FIFO[T]) Empty() bool { return q.count == 0 }

// Push appends v and reports whether it was admitted (false when the
// queue is at capacity).
func (q *FIFO[T]) Push(v T) bool {
	if q.Cap > 0 && q.count >= q.Cap {
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = v
	q.count++
	return true
}

// PushFront prepends v (used by multi-queue time sharing, which
// re-enqueues preempted requests at the head of their queue). Capacity
// is not enforced for re-enqueues: the request was already admitted.
func (q *FIFO[T]) PushFront(v T) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.count++
}

// Pop removes and returns the oldest item, or the zero value.
func (q *FIFO[T]) Pop() T {
	var zero T
	if q.count == 0 {
		return zero
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return v
}

// Peek returns the oldest item without removing it, or the zero value.
func (q *FIFO[T]) Peek() T {
	if q.count == 0 {
		var zero T
		return zero
	}
	return q.buf[q.head]
}

// PopBack removes and returns the newest item, or the zero value (work
// stealing takes from the tail of a victim's queue).
func (q *FIFO[T]) PopBack() T {
	var zero T
	if q.count == 0 {
		return zero
	}
	idx := (q.head + q.count - 1) & (len(q.buf) - 1)
	v := q.buf[idx]
	q.buf[idx] = zero
	q.count--
	return v
}

func (q *FIFO[T]) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < q.count; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
