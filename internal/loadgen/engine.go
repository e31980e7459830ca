package loadgen

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// arrival is one scheduled request: its wire ID (1-based position in
// the schedule), its due offset from the run's start, its type and its
// payload.
type arrival struct {
	id      uint64
	due     time.Duration
	typ     int
	payload []byte
}

// schedule yields arrivals in due order; ok is false once it is
// exhausted.
type schedule func() (a arrival, ok bool)

// poisson validates cfg and returns its Poisson schedule — cfg.Rate
// arrivals per second over cfg.Mix's ratios, due before cfg.Duration —
// and the ledger for the run, whose retry jitter is split from the
// schedule's seed.
func poisson(cfg *Config) (schedule, *ledger, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	r := rng.New(cfg.Seed)
	led := newLedger(len(cfg.Mix.Types), r.Split())
	src, err := workload.NewSource(cfg.Mix, cfg.Rate, r)
	if err != nil {
		return nil, nil, err
	}
	var id uint64
	var due time.Duration
	return func() (arrival, bool) {
		next := src.Next()
		due += next.Gap
		if due >= cfg.Duration {
			return arrival{}, false
		}
		id++
		return arrival{id: id, due: due, typ: next.Type, payload: cfg.BuildPayload(next.Type)}, true
	}, led, nil
}

// pace is the one pacing loop: it hands each arrival to send at its due
// offset from the run's start, regardless of how the server keeps up,
// and books the send with its lateness — the instant send reports the
// request went out, minus the due time — or the send error. It returns
// the run's start instant.
func pace(next schedule, led *ledger, send func(arrival) (time.Time, error)) time.Time {
	start := time.Now()
	for a, ok := next(); ok; a, ok = next() {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sentAt, err := send(a)
		if err != nil {
			led.failed()
			continue
		}
		led.sent(a.typ, sentAt.Sub(due))
	}
	return start
}

// ledger is the one outcome ledger every transport books into. Each
// sent request gets exactly one outcome — received, dropped or timed
// out — and close books every sent request still without one as timed
// out. After close the Result is frozen: later outcomes, from
// goroutines the run no longer waits for, are ignored under the lock.
type ledger struct {
	mu     sync.Mutex
	res    *Result
	open   []int64 // per type: sent minus outcomes booked
	jit    *rng.RNG
	closed bool
}

func newLedger(types int, jitter *rng.RNG) *ledger {
	res := &Result{
		Overall:        &metrics.Histogram{},
		Late:           &metrics.Histogram{},
		DroppedByType:  make([]uint64, types),
		TimedOutByType: make([]uint64, types),
	}
	for i := 0; i < types; i++ {
		res.Latency = append(res.Latency, &metrics.Histogram{})
	}
	return &ledger{res: res, open: make([]int64, types), jit: jitter}
}

// sent books a request that went out late after its due time.
func (l *ledger) sent(typ int, late time.Duration) {
	l.mu.Lock()
	if !l.closed {
		l.res.Sent++
		l.open[typ]++
		l.res.Late.RecordDuration(late)
	}
	l.mu.Unlock()
}

// failed books a request whose first transmission failed: it was
// never sent, so it has no outcome.
func (l *ledger) failed() {
	l.mu.Lock()
	if !l.closed {
		l.res.Errors++
	}
	l.mu.Unlock()
}

// received books a response, with the latency from the request's first
// transmission; hedged marks a frontend answer that needed a hedge.
func (l *ledger) received(typ int, lat time.Duration, hedged bool) {
	l.mu.Lock()
	if !l.closed {
		l.res.Received++
		l.open[typ]--
		l.res.Latency[typ].RecordDuration(lat)
		l.res.Overall.RecordDuration(lat)
		if hedged {
			l.res.Hedged++
		}
	}
	l.mu.Unlock()
}

// dropped books a request the server answered with a drop status and
// that has no retry left.
func (l *ledger) dropped(typ int) {
	l.mu.Lock()
	if !l.closed {
		l.res.Dropped++
		l.res.DroppedByType[typ]++
		l.open[typ]--
	}
	l.mu.Unlock()
}

// timedOut books a request that will never get a response.
func (l *ledger) timedOut(typ int) {
	l.mu.Lock()
	if !l.closed {
		l.res.TimedOut++
		l.res.TimedOutByType[typ]++
		l.open[typ]--
	}
	l.mu.Unlock()
}

// nacked books an admission NACK (informational: the request's outcome
// is booked separately).
func (l *ledger) nacked() {
	l.mu.Lock()
	if !l.closed {
		l.res.Nacked++
	}
	l.mu.Unlock()
}

// retried books a retransmission; false means the ledger is closed and
// the request is no longer worth retrying.
func (l *ledger) retried() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.res.Retries++
	}
	return !l.closed
}

// jitter draws a uniform [0, 1) retry-backoff jitter.
func (l *ledger) jitter() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.jit.Float64()
}

// drain waits until every sent request has an outcome, or timeout.
func (l *ledger) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		pending := l.res.Unaccounted()
		l.mu.Unlock()
		if pending <= 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// close books every sent request still without an outcome as timed
// out, freezes the Result and returns it.
func (l *ledger) close(start time.Time) *Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		for typ, n := range l.open {
			if n > 0 {
				l.res.TimedOut += uint64(n)
				l.res.TimedOutByType[typ] += uint64(n)
			}
		}
		l.res.Elapsed = time.Since(start)
	}
	return l.res
}
