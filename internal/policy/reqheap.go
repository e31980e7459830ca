package policy

import (
	"time"

	"repro/internal/cluster"
)

// requestHeap is a bounded binary min-heap of requests by a key taken
// when the request is pushed, used by the SRPT-flavoured policies
// (oracle SJF, idealized time sharing) and EDF. Ties break by push
// order via a monotonic sequence number. The key sits inline beside the
// request, so sifting never calls out or dereferences a request; a
// key must therefore not change while its request is queued.
type requestHeap struct {
	key   func(r *cluster.Request) time.Duration
	items []heapItem
	seq   uint64
	// Cap bounds the heap; 0 means unbounded.
	Cap int
}

type heapItem struct {
	key time.Duration
	seq uint64
	r   *cluster.Request
}

func newRequestHeap(capacity int, key func(r *cluster.Request) time.Duration) *requestHeap {
	return &requestHeap{key: key, Cap: capacity}
}

func (h *requestHeap) Len() int    { return len(h.items) }
func (h *requestHeap) Empty() bool { return len(h.items) == 0 }

// Push inserts r, reporting false when the heap is at capacity.
func (h *requestHeap) Push(r *cluster.Request) bool {
	if h.Cap > 0 && len(h.items) >= h.Cap {
		return false
	}
	h.items = append(h.items, heapItem{key: h.key(r), seq: h.seq, r: r})
	h.seq++
	h.up(len(h.items) - 1)
	return true
}

// Pop removes and returns the minimum request, or nil.
func (h *requestHeap) Pop() *cluster.Request {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0].r
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum request without removing it, or nil.
func (h *requestHeap) Peek() *cluster.Request {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0].r
}

func (h *requestHeap) before(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

func (h *requestHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *requestHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && h.before(right, left) {
			child = right
		}
		if !h.before(child, i) {
			return
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
}
