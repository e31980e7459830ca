package spsc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// jitter pauses for a random, usually zero, while: nothing, a yield,
// or a short spin. Placed between a publication and its Wake, and
// between an announcement and its re-check, it walks the two sides of
// the protocol across each other in every order.
func jitter(rnd *rand.Rand) {
	switch n := rnd.Intn(16); {
	case n < 10:
	case n < 14:
		runtime.Gosched()
	default:
		for i := rnd.Intn(200); i > 0; i-- {
			_ = i
		}
	}
}

// TestParkerNoLostWakeup hands a million items from four producers to
// one consumer through an MPSC ring and a Parker, closed-loop: each
// producer has one item out at a time and waits on a Ring (whose Get
// parks on the ring's own Parker) for the consumer's acknowledgement.
// The consumer therefore runs dry after every few items and goes
// through announce, re-check and park about as often as it is handed
// something, while the producers' Wake calls land anywhere in that
// window. One missed wake-up stops all five goroutines for good, and
// the deadline turns that into a failure with a goroutine dump.
func TestParkerNoLostWakeup(t *testing.T) {
	const producers = 4
	const perProducer = 1 << 18 // 2^20 hand-offs in all, and as many acknowledgements
	q := NewMPSC[int](producers)
	park := NewParker()
	acks := make([]*Ring[int], producers)
	for i := range acks {
		acks[i] = NewRing[int](2)
	}

	var wg sync.WaitGroup
	for id := 0; id < producers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(id) + 1))
			for seq := 0; seq < perProducer; seq++ {
				jitter(rnd)
				for !q.TryPut(id) {
					runtime.Gosched()
				}
				jitter(rnd) // published, not yet woken
				park.Wake()
				if got := acks[id].Get(); got != seq {
					t.Errorf("producer %d: acknowledgement %d, want %d", id, got, seq)
					return
				}
			}
		}(id)
	}

	var parks int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(99))
		var seen [producers]int
		for got := 0; got < producers*perProducer; {
			if id, ok := q.TryGet(); ok {
				park.Busy()
				acks[id].Put(seen[id])
				seen[id]++
				got++
				continue
			}
			if park.announced {
				parks++ // announced and re-checked: this Idle blocks
			}
			park.Idle()
			if park.announced {
				jitter(rnd) // announced, not yet re-checked
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		// A lost wake-up is a hang; the dump shows who is parked on what.
		buf := make([]byte, 1<<20)
		t.Fatalf("hand-offs stopped: a wake-up was lost\n%s", buf[:runtime.Stack(buf, true)])
	}
	// A consumer that never ran dry proved nothing about parking.
	if parks < perProducer/100 {
		t.Fatalf("consumer parked only %d times in %d hand-offs", parks, producers*perProducer)
	}
	t.Logf("%d hand-offs, consumer parked %d times", producers*perProducer, parks)
}

// TestParkerSpuriousTokenAbsorbed pins the two properties the stale
// token relies on: a Wake that raced a withdrawn announcement leaves at
// most one token behind, and that token costs the consumer one extra
// trip round its loop, never a lost or a blocked Wake.
func TestParkerSpuriousTokenAbsorbed(t *testing.T) {
	p := NewParker()
	p.Idle() // announce
	p.Wake() // a producer takes the announcement...
	p.Busy() // ...while the consumer's re-check finds the work itself
	p.Wake() // no announcement stands: one load, no token
	if n := len(p.sema); n != 1 {
		t.Fatalf("%d tokens in the semaphore, want the 1 stale one", n)
	}
	p.Idle()
	p.Idle() // would block for good if the stale token were not there
	if p.parked.Load() || p.announced {
		t.Fatalf("after a spurious wake-up: parked=%v announced=%v, want a fresh start", p.parked.Load(), p.announced)
	}
	// A second Wake against an announcement whose token is already in
	// the channel must not block the producer.
	p.Idle()
	p.Wake()
	p.parked.Store(true)
	p.Wake()
	if n := len(p.sema); n != 1 {
		t.Fatalf("%d tokens in the semaphore, want 1", n)
	}
}

// TestParkerAnnouncesOnFirstEmptyPass pins the protocol's shape: there
// is no spin phase, so the first empty pass announces, a pass that
// finds work withdraws the announcement, and a Wake that lands between
// the announcement and the re-check leaves the token the next Idle
// consumes instead of blocking.
func TestParkerAnnouncesOnFirstEmptyPass(t *testing.T) {
	p := NewParker()
	p.Idle()
	if !p.parked.Load() || !p.announced {
		t.Fatalf("after one empty pass: parked=%v announced=%v, want an announcement", p.parked.Load(), p.announced)
	}
	p.Busy()
	if p.parked.Load() || p.announced {
		t.Fatalf("after a busy pass: parked=%v announced=%v, want none", p.parked.Load(), p.announced)
	}
	p.Idle()
	p.Wake() // published after the announcement, before the re-check
	if n := len(p.sema); n != 1 {
		t.Fatalf("%d tokens in the semaphore, want 1", n)
	}
	p.Idle() // the re-check found nothing: consume the token, do not block
	if p.parked.Load() || p.announced || len(p.sema) != 0 {
		t.Fatalf("after the wake-up: parked=%v announced=%v tokens=%d, want a fresh start",
			p.parked.Load(), p.announced, len(p.sema))
	}
}

func TestParkerWakeWithNobodyParkedAllocatesNothing(t *testing.T) {
	p := NewParker()
	if allocs := testing.AllocsPerRun(1000, p.Wake); allocs != 0 {
		t.Fatalf("Wake allocates %.0f objects", allocs)
	}
	r := NewRing[int](8)
	if allocs := testing.AllocsPerRun(1000, func() { r.Put(1); r.Get() }); allocs != 0 {
		t.Fatalf("Put+Get allocates %.0f objects", allocs)
	}
}
