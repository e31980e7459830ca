package loadgen

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/rng"
)

// RunUDP generates load against a UDP Perséphone server, matching
// responses to requests by RequestID — the shape of the paper's C++
// open-loop client, extended with per-request timeouts and capped,
// jittered exponential-backoff retransmission for lossy paths.
//
// serverAddr may name several ingress shards as a comma-separated
// list ("host:9940,host:9941"); requests are spread round-robin over
// the shards (client-side shard selection), each with its own socket
// and receiver, matching the server's sharded datapath.
//
// Each request has exactly one recorded outcome: a latency sample
// (measured from the first transmission, so retries do not reset the
// clock), a drop (the server answered with a drop status), or a
// timeout (no response within RequestTimeout across 1+MaxRetries
// transmissions, or still unanswered when the final drain gives up).
func RunUDP(serverAddr string, cfg Config) (*Result, error) {
	return RunUDPAddrs(strings.Split(serverAddr, ","), cfg)
}

// RunUDPAddrs is RunUDP with the shard list passed explicitly.
func RunUDPAddrs(addrs []string, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, errors.New("loadgen: no server address")
	}
	conns := make([]*net.UDPConn, 0, len(addrs))
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, a := range addrs {
		addr, err := net.ResolveUDPAddr("udp", strings.TrimSpace(a))
		if err != nil {
			return nil, err
		}
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, conn)
	}

	r := rng.New(cfg.Seed)
	jitterRNG := r.Split()
	res := newResult(len(cfg.Mix.Types))
	var mu sync.Mutex
	inflight := make(map[uint64]*pendingReq)
	var received, dropped, timedOut, retries, hedged, nacked atomic.Uint64
	dbt := newDropCounter(len(cfg.Mix.Types))

	// Receivers, one per shard socket: match responses to sends.
	// Responses to requests already expired (or duplicate responses)
	// find no record and are ignored, so nothing is double counted.
	var recvWG sync.WaitGroup
	for _, conn := range conns {
		recvWG.Add(1)
		go func(conn *net.UDPConn) {
			defer recvWG.Done()
			buf := make([]byte, 4096)
			for {
				n, err := conn.Read(buf)
				if err != nil {
					return // deadline or close
				}
				h, _, perr := proto.DecodeHeader(buf[:n])
				if perr != nil || h.Kind != proto.KindResponse {
					continue
				}
				mu.Lock()
				rec, ok := inflight[h.RequestID]
				if ok {
					delete(inflight, h.RequestID)
				}
				mu.Unlock()
				if !ok {
					continue
				}
				if h.Status == proto.StatusOverloaded && cfg.RequestTimeout > 0 && rec.attempts < cfg.MaxRetries {
					// Admission NACK with retry budget left: re-arm the
					// record so the retransmitter re-sends it once the
					// server's retry-after hint (jittered) elapses.
					// Latency keeps running from the first send.
					nacked.Add(1)
					ra, _ := proto.DecodeRetryAfter(buf[:n], h)
					mu.Lock()
					rec.deadline = time.Now().Add(cfg.retryDelay(rec.attempts+1, jitterRNG.Float64(), ra))
					inflight[h.RequestID] = rec
					mu.Unlock()
					continue
				}
				if h.Status != proto.StatusOK {
					if h.Status == proto.StatusOverloaded {
						nacked.Add(1)
					}
					dropped.Add(1)
					dbt.add(rec.typ)
					continue
				}
				if cfg.Frontend {
					// Frontend responses carry a correlation trailer
					// whose Attempt field is the query's hedge count.
					if corr, ok := proto.DecodeCorrelation(buf[:n], h); ok && corr.Attempt > 0 {
						hedged.Add(1)
					}
				}
				lat := time.Since(rec.firstSent)
				received.Add(1)
				mu.Lock()
				res.Latency[rec.typ].RecordDuration(lat)
				res.Overall.RecordDuration(lat)
				mu.Unlock()
			}
		}(conn)
	}

	// Retransmitter: expire or re-send requests whose deadline passed.
	// Retransmissions go out on the request's original shard socket.
	// Only runs when per-request timeouts are configured.
	retryStop := make(chan struct{})
	retryDone := make(chan struct{})
	if cfg.RequestTimeout > 0 {
		go func() {
			defer close(retryDone)
			tick := cfg.RequestTimeout / 4
			if tick > 5*time.Millisecond {
				tick = 5 * time.Millisecond
			}
			if tick < 200*time.Microsecond {
				tick = 200 * time.Microsecond
			}
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			for {
				select {
				case <-retryStop:
					return
				case <-ticker.C:
				}
				now := time.Now()
				var resend []*pendingReq
				mu.Lock()
				for id, rec := range inflight {
					if now.Before(rec.deadline) {
						continue
					}
					if rec.attempts >= cfg.MaxRetries {
						delete(inflight, id)
						timedOut.Add(1)
						continue
					}
					rec.attempts++
					// The request header's status byte carries the
					// attempt number so the server can count retries.
					rec.msg[3] = byte(rec.attempts)
					backoff := cfg.backoffFor(rec.attempts, jitterRNG.Float64())
					rec.deadline = now.Add(cfg.RequestTimeout + backoff)
					resend = append(resend, rec)
				}
				mu.Unlock()
				for _, rec := range resend {
					conns[rec.shard].Write(rec.msg) //nolint:errcheck // fire-and-forget UDP
					retries.Add(1)
				}
			}
		}()
	} else {
		close(retryDone)
	}

	start := time.Now()
	next := start
	var id uint64
	var sent uint64
	for time.Since(start) < cfg.Duration {
		gap := time.Duration(r.Exp(1/cfg.Rate) * float64(time.Second))
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		typ := pickType(cfg.Mix, r)
		id++
		shard := int(id % uint64(len(conns)))
		msg := proto.AppendMessage(nil, proto.Header{
			Kind:      proto.KindRequest,
			RequestID: id,
		}, cfg.BuildPayload(typ))
		now := time.Now()
		rec := &pendingReq{typ: typ, shard: shard, firstSent: now}
		if cfg.RequestTimeout > 0 {
			rec.deadline = now.Add(cfg.RequestTimeout)
			// The retransmitter stamps the attempt into its own copy: a
			// NACK can re-arm the record, and the retransmitter pick it
			// up, while the first Write below is still reading msg.
			rec.msg = append([]byte(nil), msg...)
		}
		mu.Lock()
		inflight[id] = rec
		mu.Unlock()
		if _, err := conns[shard].Write(msg); err != nil {
			mu.Lock()
			delete(inflight, id)
			mu.Unlock()
			continue
		}
		sent++
	}

	// Grace period for stragglers (retransmission keeps running), then
	// unblock the receivers.
	deadline := time.Now().Add(cfg.Timeout)
	for time.Now().Before(deadline) {
		mu.Lock()
		pending := len(inflight)
		mu.Unlock()
		if pending == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(retryStop)
	<-retryDone
	for _, conn := range conns {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	recvWG.Wait()

	// Whatever is still unanswered is a loss, recorded explicitly so it
	// cannot silently skew achieved-rate or quantile statistics.
	mu.Lock()
	lost := len(inflight)
	mu.Unlock()
	res.Sent = sent
	res.Received = received.Load()
	res.Dropped = dropped.Load()
	res.TimedOut = timedOut.Load() + uint64(lost)
	res.Retries = retries.Load()
	res.Hedged = hedged.Load()
	res.Nacked = nacked.Load()
	dbt.publish(res)
	res.Elapsed = time.Since(start)
	return res, nil
}

// pendingReq tracks one unanswered request: its encoded message, the
// shard socket it was sent on, first-send time for retry-aware
// latency, and retransmission state.
type pendingReq struct {
	typ       int
	shard     int
	firstSent time.Time
	attempts  int
	deadline  time.Time
	msg       []byte
}
