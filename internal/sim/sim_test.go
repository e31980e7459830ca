package sim

import (
	"math/rand"
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

// TestEventOrderMatchesReferenceSort drives random interleavings of At,
// After, Stream and Cancel, issued both up front and from inside firing
// callbacks, over a few instants so that ties abound. Every step must
// fire the callback a reference sort by (time, schedule order) puts
// first, and Pending must count the stream.
func TestEventOrderMatchesReferenceSort(t *testing.T) {
	type ref struct {
		at     Time
		seq    uint64
		id     int
		h      Handle
		stream bool
	}
	streamTies := 0
	for seed := int64(1); seed <= 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		var model []ref
		var seq uint64
		var fired []int
		var stale []Handle
		ids := 0
		var act func()
		add := func(stream bool) {
			id := ids
			ids++
			fn := func() { fired = append(fired, id); act() }
			at := s.Now() + Time(rnd.Intn(4))
			r := ref{at: at, seq: seq, id: id, stream: stream}
			switch {
			case stream:
				s.Stream(at, fn)
			case rnd.Intn(2) == 0:
				r.h = s.At(at, fn)
			default:
				r.h = s.After(at-s.Now(), fn)
			}
			seq++
			model = append(model, r)
		}
		act = func() {
			for n := rnd.Intn(4); n > 0 && ids < 200; n-- {
				switch op := rnd.Intn(4); {
				case op == 0:
					streaming := false
					for _, r := range model {
						streaming = streaming || r.stream
					}
					if !streaming {
						add(true)
					}
				case op == 1 && len(model) > 0:
					i := rnd.Intn(len(model))
					if model[i].stream {
						break
					}
					if !s.Cancel(model[i].h) {
						t.Fatalf("seed %d: cancel of pending callback %d failed", seed, model[i].id)
					}
					stale = append(stale, model[i].h)
					model = append(model[:i], model[i+1:]...)
				case op == 1 && len(stale) > 0:
					if s.Cancel(stale[rnd.Intn(len(stale))]) {
						t.Fatalf("seed %d: cancel of a fired or cancelled callback succeeded", seed)
					}
				default:
					add(false)
				}
			}
		}
		act()
		for len(model) > 0 {
			if s.Pending() != len(model) {
				t.Fatalf("seed %d: Pending %d, want %d", seed, s.Pending(), len(model))
			}
			first := 0
			for i, r := range model {
				if r.at < model[first].at || r.at == model[first].at && r.seq < model[first].seq {
					first = i
				}
			}
			want := model[first]
			for _, r := range model {
				if r.at == want.at && r.stream != want.stream {
					streamTies++
				}
			}
			model = append(model[:first], model[first+1:]...)
			if !want.stream {
				stale = append(stale, want.h)
			}
			if !s.Step() || fired[len(fired)-1] != want.id || s.Now() != want.at {
				t.Fatalf("seed %d: fired %v at %v, want %d at %v", seed, fired, s.Now(), want.id, want.at)
			}
		}
		if s.Step() || s.Pending() != 0 {
			t.Fatalf("seed %d: callbacks left after the model emptied", seed)
		}
	}
	if streamTies == 0 {
		t.Fatal("no stream callback tied with a heap event; the test proves nothing")
	}
}

// TestStreamContract: one stream callback at a time, never in the
// past, and RunUntil stops at a stream callback past the horizon.
func TestStreamContract(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	s := New()
	s.Stream(10, func() {})
	mustPanic("a second pending stream", func() { s.Stream(20, func() {}) })
	s.RunUntil(5)
	if s.Pending() != 1 || s.Fired() != 0 {
		t.Fatalf("stream past the horizon fired: pending %d, fired %d", s.Pending(), s.Fired())
	}
	mustPanic("a stream in the past", func() { s.Stream(4, func() {}) })
	s.RunUntil(10)
	if s.Pending() != 0 || s.Fired() != 1 {
		t.Fatalf("stream at the horizon did not fire: pending %d, fired %d", s.Pending(), s.Fired())
	}
}

// BenchmarkArrivalStream is the engine's share of one simulated request
// on a 16-worker machine: an open-loop arrival on the stream, and a
// completion on the heap among about 16 pending ones.
func BenchmarkArrivalStream(b *testing.B) {
	s := New()
	done := func() {}
	var arrive func()
	arrive = func() {
		s.After(16*time.Microsecond, done)
		s.Stream(s.Now()+time.Microsecond, arrive)
	}
	s.Stream(0, arrive)
	for s.Pending() < 17 {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		s.Step()
	}
}
