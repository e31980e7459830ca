// Package loadgen is the open-loop load generator for the live
// runtime: it models the paper's client, issuing requests under a
// Poisson process (or a recorded trace) at their due times regardless
// of server progress, and records client-observed latency per request
// type.
//
// Every path — RunInProcess, RunUDP, RunTCP and ReplayUDP — is a thin
// adapter over one engine: one pacer (pace) sends each arrival at its
// due offset, one outcome ledger books every request's single outcome,
// and the UDP paths share one session (dial per shard, receivers,
// retransmitter).
package loadgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/workload"
)

// Config drives one load generation run.
type Config struct {
	// Mix supplies the request types and their occurrence ratios (the
	// per-type service distributions are the server's business; only
	// ratios are used here).
	Mix workload.Mix
	// Rate is the offered load in requests per second.
	Rate float64
	// Duration is how long to generate for.
	Duration time.Duration
	// Seed makes the arrival process reproducible.
	Seed uint64
	// BuildPayload converts a type index into a request payload. The
	// default emits a 2-byte little-endian type header (matching
	// classify.Field{Offset: 0}).
	BuildPayload func(typ int) []byte
	// Timeout bounds how long to wait for stragglers after the last
	// send (default 2s); requests still unanswered then are recorded
	// as TimedOut.
	Timeout time.Duration
	// RequestTimeout bounds the wait for each individual response.
	// RunUDP retransmits an unanswered request after this long (up to
	// MaxRetries times) and finally records it as timed out; RunInProcess
	// stops waiting and records a timeout. 0 disables per-request
	// timeouts: unanswered requests are still recorded as TimedOut when
	// the final drain gives up on them.
	RequestTimeout time.Duration
	// MaxRetries caps retransmissions per request (default 0: a request
	// is sent once and expires after RequestTimeout).
	MaxRetries int
	// RetryBackoff is the extra wait added to RequestTimeout before a
	// retransmission; it doubles per attempt and is jittered to avoid
	// synchronized retry storms (default 1ms when retries are enabled).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff growth (default
	// 64x RetryBackoff).
	RetryBackoffMax time.Duration
	// Conns is how many TCP connections RunTCP opens (default 1).
	// Ignored off the TCP path.
	Conns int
	// Pipeline caps concurrently outstanding requests per TCP
	// connection (default 32); a full pipeline gates the sender, the
	// stream transport's flow control. Ignored off the TCP path.
	Pipeline int
}

func (c *Config) fill() error {
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Rate <= 0 {
		return errors.New("loadgen: non-positive rate")
	}
	if c.Duration <= 0 {
		return errors.New("loadgen: non-positive duration")
	}
	if c.BuildPayload == nil {
		c.BuildPayload = func(typ int) []byte {
			p := make([]byte, 8)
			binary.LittleEndian.PutUint16(p, uint16(typ))
			return p
		}
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.RequestTimeout < 0 || c.MaxRetries < 0 || c.RetryBackoff < 0 || c.RetryBackoffMax < 0 {
		return errors.New("loadgen: negative retry configuration")
	}
	if c.MaxRetries > 0 && c.RequestTimeout == 0 {
		return errors.New("loadgen: MaxRetries needs a RequestTimeout")
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 64 * c.RetryBackoff
	}
	return nil
}

// backoffFor computes the capped exponential backoff before
// retransmission number attempt (1-based), jittered into
// [backoff/2, backoff) so synchronized clients desynchronize.
func (c *Config) backoffFor(attempt int, jitter float64) time.Duration {
	b := c.RetryBackoff
	for i := 1; i < attempt && b < c.RetryBackoffMax; i++ {
		b *= 2
	}
	if b > c.RetryBackoffMax {
		b = c.RetryBackoffMax
	}
	return b/2 + time.Duration(jitter*float64(b/2))
}

// retryDelay computes the pre-retry sleep: the capped exponential
// backoff, raised to the server's retry-after hint (plus proportional
// jitter, so backed-off clients still desynchronize) when an
// admission NACK carried one.
func (c *Config) retryDelay(attempt int, jitter float64, retryAfter time.Duration) time.Duration {
	d := c.backoffFor(attempt, jitter)
	if retryAfter > 0 {
		hinted := retryAfter + time.Duration(jitter*float64(retryAfter)/2)
		if hinted > d {
			d = hinted
		}
	}
	return d
}

// Result aggregates one run. Every sent request has exactly one
// recorded outcome: Received, Dropped, or TimedOut (retries are extra
// transmissions of the same request, not new requests).
type Result struct {
	Sent     uint64
	Received uint64
	Dropped  uint64 // responses with a drop status
	TimedOut uint64 // requests that never received any response
	Retries  uint64 // retransmissions of already-sent requests
	Errors   uint64 // requests whose first transmission failed (never sent)
	// Hedged counts received queries a fan-out frontend answered with
	// >= 1 hedge issued (read from the response's correlation trailer,
	// which a plain backend never attaches).
	Hedged uint64
	// Nacked counts admission NACKs (StatusOverloaded responses)
	// observed, informational: each NACKed request's final outcome is
	// still exactly one of Received (a retry succeeded), Dropped
	// (retry budget exhausted), or TimedOut, so the conservation
	// identity is unchanged.
	Nacked uint64
	// DroppedByType and TimedOutByType break Dropped and TimedOut down
	// by request type index (same indexing as Latency), for exact
	// per-type conservation against the server's ledgers.
	DroppedByType  []uint64
	TimedOutByType []uint64
	Elapsed        time.Duration
	// Latency holds client-observed latency per type index, plus an
	// aggregate in Overall. Latency is measured from the FIRST
	// transmission of a request, so retries lengthen the recorded
	// latency instead of resetting it.
	Latency []*metrics.Histogram
	Overall *metrics.Histogram
	// Late holds the generator's lateness per sent request: its first
	// transmission minus its due time. Late plus Latency is the time
	// from a request's due time to its response.
	Late *metrics.Histogram
}

// AchievedRate reports received responses per second.
func (r *Result) AchievedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Received) / r.Elapsed.Seconds()
}

// Unaccounted reports sent requests with no recorded outcome; a
// correct run is always 0.
func (r *Result) Unaccounted() int64 {
	return int64(r.Sent) - int64(r.Received) - int64(r.Dropped) - int64(r.TimedOut)
}

// String summarises a result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("loadgen{sent=%d recv=%d drop=%d timeout=%d retry=%d nack=%d err=%d rate=%.0f/s p99=%v}",
		r.Sent, r.Received, r.Dropped, r.TimedOut, r.Retries, r.Nacked, r.Errors, r.AchievedRate(),
		r.Overall.QuantileDuration(0.99))
}

// RunInProcess generates load against an in-process psp.Server. A
// request the server refuses at submission is counted in Errors.
func RunInProcess(srv *psp.Server, cfg Config) (*Result, error) {
	next, led, err := poisson(&cfg)
	if err != nil {
		return nil, err
	}
	start := pace(next, led, func(a arrival) (time.Time, error) {
		t0 := time.Now()
		ch, err := srv.Submit(a.payload)
		if err != nil {
			return t0, err
		}
		go settle(&cfg, led, a.typ, t0, a.payload, func(p []byte) (psp.Response, error) {
			if ch == nil { // a retry resubmits
				var err error
				if ch, err = srv.Submit(p); err != nil {
					return psp.Response{}, err
				}
			}
			wait := ch
			ch = nil
			if cfg.RequestTimeout <= 0 {
				return <-wait, nil
			}
			select {
			case resp := <-wait:
				return resp, nil
			case <-time.After(cfg.RequestTimeout):
				return psp.Response{}, psp.ErrDeadlineExceeded
			}
		})
		return t0, nil
	})
	led.drain(cfg.Timeout)
	return led.close(start), nil
}

// settle is the per-request retry loop of the in-process and TCP
// paths: it issues payload through call until the request has its one
// outcome. A shed response (a drop status or an admission NACK) is
// retried after the capped, jittered backoff — raised to a NACK's
// retry-after hint — up to MaxRetries times, then booked Dropped; a
// call that ends without a response (the per-request timeout passed,
// the connection died, the server refused a resubmission) is booked
// TimedOut. Latency runs from the first transmission at t0, so a
// retried request carries its full cost.
func settle(cfg *Config, led *ledger, typ int, t0 time.Time, payload []byte, call func([]byte) (psp.Response, error)) {
	for attempt := 1; ; attempt++ {
		resp, err := call(payload)
		switch {
		case err == nil && resp.Status == proto.StatusOK:
			led.received(typ, time.Since(t0), false)
			return
		case err != nil && !errors.Is(err, psp.ErrOverloaded):
			led.timedOut(typ)
			return
		}
		if resp.Status == proto.StatusOverloaded {
			led.nacked()
		}
		if attempt > cfg.MaxRetries {
			led.dropped(typ)
			return
		}
		if !led.retried() {
			return
		}
		time.Sleep(cfg.retryDelay(attempt, led.jitter(), resp.RetryAfter))
	}
}
