package eventq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var fired []int
	q.Push(30, func() { fired = append(fired, 3) })
	q.Push(10, func() { fired = append(fired, 1) })
	q.Push(20, func() { fired = append(fired, 2) })
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired order %v", fired)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Push(5, func() { fired = append(fired, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fn()
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-instant events out of schedule order: %v", fired)
		}
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Fatal("Pop on empty returned an event")
	}
	if q.Peek() != nil {
		t.Fatal("Peek on empty returned an event")
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Push(10, func() { fired = true })
	if !q.Cancel(e) {
		t.Fatal("Cancel reported failure for a queued event")
	}
	if q.Cancel(e) {
		t.Fatal("double Cancel reported success")
	}
	if q.Len() != 0 {
		t.Fatalf("queue has %d events after cancel", q.Len())
	}
	if q.Pop() != nil || fired {
		t.Fatal("cancelled event still present")
	}
}

func TestCancelNil(t *testing.T) {
	var q Queue
	if q.Cancel(nil) {
		t.Fatal("Cancel(nil) reported success")
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var fired []time.Duration
	events := make([]*Event, 0, 20)
	times := []time.Duration{50, 10, 40, 20, 30, 15, 45, 25, 35, 5}
	for _, at := range times {
		at := at
		events = append(events, q.Push(at, func() { fired = append(fired, at) }))
	}
	// Cancel a few interior events.
	q.Cancel(events[2]) // 40
	q.Cancel(events[4]) // 30
	q.Cancel(events[9]) // 5
	var prev time.Duration = -1
	for q.Len() > 0 {
		e := q.Pop()
		if e.At < prev {
			t.Fatalf("heap order violated: %v after %v", e.At, prev)
		}
		prev = e.At
		e.Fn()
	}
	want := []time.Duration{10, 15, 20, 25, 35, 45, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestCancelAfterPop(t *testing.T) {
	var q Queue
	e := q.Push(1, func() {})
	q.Pop()
	if q.Cancel(e) {
		t.Fatal("Cancel succeeded on a popped event")
	}
}

// TestHeapProperty pushes pseudo-random times and checks pops come out
// sorted, under random interleaved cancels.
func TestHeapProperty(t *testing.T) {
	check := func(times []uint16, cancelMask []bool) bool {
		var q Queue
		events := make([]*Event, len(times))
		for i, at := range times {
			events[i] = q.Push(time.Duration(at), func() {})
		}
		for i := range cancelMask {
			if i < len(events) && cancelMask[i] {
				q.Cancel(events[i])
			}
		}
		var prev time.Duration = -1
		var prevSeq uint64
		for q.Len() > 0 {
			e := q.Pop()
			if e.At < prev {
				return false
			}
			if e.At == prev && e.Seq < prevSeq {
				return false
			}
			prev, prevSeq = e.At, e.Seq
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecycleReusesEvent(t *testing.T) {
	var q Queue
	e := q.Push(1, func() {})
	q.Recycle(e) // still queued: a no-op
	if q.Pop() != e {
		t.Fatal("recycling a queued event disturbed the queue")
	}
	q.Recycle(e)
	q.Recycle(e) // twice: still only one free slot
	a := q.Push(2, func() {})
	b := q.Push(3, func() {})
	if a != e || b == e {
		t.Fatalf("Push reused %p and %p, want exactly one reuse of %p", a, b, e)
	}
	if a.Seq != 1 || a.At != 2 || !a.Queued() {
		t.Fatalf("reused event not reset: %+v", a)
	}
	if q.Cancel(b) {
		q.Recycle(b)
	}
	if c := q.Push(4, nil); c != b {
		t.Fatal("a cancelled event was not reused")
	}
}

// BenchmarkQueueHold is the classic hold model: with n events pending,
// each operation pops the earliest and schedules a successor an
// exponentially distributed delay later, recycling the popped event. The
// simulator's queues hold about 17 events (one per worker plus a few
// timers); the large sizes guard against a heap shape that only wins
// on small queues.
func BenchmarkQueueHold(b *testing.B) {
	for _, n := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(1))
			delay := func() time.Duration { return time.Duration(rnd.ExpFloat64() * float64(n) * 1000) }
			var q Queue
			for i := 0; i < n; i++ {
				q.Push(delay(), nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.Pop()
				q.Recycle(e)
				q.Push(e.At+delay(), nil)
			}
		})
	}
}
