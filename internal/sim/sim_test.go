package sim

import (
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	s := New()
	var at Time
	s.After(10*time.Microsecond, func() { at = s.Now() })
	s.Run()
	if at != 10*time.Microsecond {
		t.Fatalf("event saw time %v, want 10µs", at)
	}
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var order []int
	s.After(5, func() {
		order = append(order, 1)
		s.After(5, func() { order = append(order, 3) })
	})
	s.After(7, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Fired() != 3 {
		t.Fatalf("fired %d", s.Fired())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	fired := 0
	// Self-perpetuating process, like an open-loop arrival source.
	var tick func()
	tick = func() {
		fired++
		s.After(time.Millisecond, tick)
	}
	s.After(time.Millisecond, tick)
	s.RunUntil(10 * time.Millisecond)
	if fired != 10 {
		t.Fatalf("fired %d events, want 10", fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want horizon", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want the next tick", s.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("clock %v, want 1s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.After(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("cancel failed")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(Time(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("ran %d events after halt, want 3", count)
	}
	// Run can resume after a halt.
	s.Run()
	if count != 10 {
		t.Fatalf("resume ran to %d, want 10", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		var log []Time
		for i := 0; i < 100; i++ {
			d := Time((i * 37) % 50)
			s.After(d, func() { log = append(log, s.Now()) })
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStaleHandleNeverCancelsARecycledEvent checks the handle contract:
// once its callback has fired or been cancelled, a Handle's Cancel
// reports false and leaves alone the event that now reuses its memory.
func TestStaleHandleNeverCancelsARecycledEvent(t *testing.T) {
	for _, how := range []string{"fired", "cancelled"} {
		t.Run(how, func(t *testing.T) {
			s := New()
			stale := s.After(10, func() {})
			if how == "fired" {
				s.Run()
			} else if !s.Cancel(stale) {
				t.Fatal("cancel of a pending callback failed")
			}
			fired := false
			fresh := s.After(10, func() { fired = true })
			if fresh.e != stale.e {
				t.Fatal("the engine did not reuse the event; the test proves nothing")
			}
			if stale.Pending() {
				t.Fatal("stale handle reports pending")
			}
			if s.Cancel(stale) {
				t.Fatal("stale handle's Cancel reported success")
			}
			if !fresh.Pending() || s.Pending() != 1 {
				t.Fatal("stale handle's Cancel removed the recycled event")
			}
			s.Run()
			if !fired {
				t.Fatal("recycled event did not fire")
			}
		})
	}
}

func TestZeroHandle(t *testing.T) {
	s := New()
	var h Handle
	if h.Pending() || s.Cancel(h) {
		t.Fatal("zero handle names a callback")
	}
}
