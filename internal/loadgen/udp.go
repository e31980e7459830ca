package loadgen

import (
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/proto"
)

// RunUDP generates load against a UDP Perséphone server, or a fan-out
// frontend, matching responses to requests by RequestID — the shape of
// the paper's C++ open-loop client, extended with per-request timeouts
// and capped, jittered exponential-backoff retransmission for lossy
// paths.
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
	next, led, err := poisson(&cfg)
	if err != nil {
		return nil, err
	}
	return runSession(serverAddr, &cfg, next, led)
}

// session is one UDP client run: a connected socket per server shard,
// a receiver per socket, a retransmitter when requests time out, and
// the table of unanswered requests they share.
type session struct {
	cfg      *Config
	led      *ledger
	conns    []*net.UDPConn
	mu       sync.Mutex
	inflight map[uint64]*pendingReq
	stop     chan struct{}
	wg       sync.WaitGroup
}

// pendingReq tracks one unanswered request: the shard socket it was
// sent on, first-send time for retry-aware latency, and retransmission
// state (msg is the retransmitter's own copy of the datagram).
type pendingReq struct {
	typ       int
	shard     int
	firstSent time.Time
	attempts  int
	deadline  time.Time
	msg       []byte
}

// runSession dials every shard in serverAddr, paces next through the
// session, drains the stragglers for cfg.Timeout, and returns the
// ledger's closed Result.
func runSession(serverAddr string, cfg *Config, next schedule, led *ledger) (*Result, error) {
	s := &session{cfg: cfg, led: led, inflight: make(map[uint64]*pendingReq), stop: make(chan struct{})}
	defer func() {
		for _, c := range s.conns {
			c.Close()
		}
	}()
	for _, a := range strings.Split(serverAddr, ",") {
		addr, err := net.ResolveUDPAddr("udp", strings.TrimSpace(a))
		if err != nil {
			return nil, err
		}
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, conn)
	}
	for _, conn := range s.conns {
		s.wg.Add(1)
		go s.receive(conn)
	}
	if cfg.RequestTimeout > 0 {
		s.wg.Add(1)
		go s.retransmit()
	}

	start := pace(next, led, s.send)
	led.drain(cfg.Timeout)
	close(s.stop)
	for _, conn := range s.conns {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck // unblocks the receivers
	}
	s.wg.Wait()
	return led.close(start), nil
}

// send transmits a's first datagram on its shard's socket.
func (s *session) send(a arrival) (time.Time, error) {
	shard := int(a.id % uint64(len(s.conns)))
	msg := proto.AppendMessage(nil, proto.Header{Kind: proto.KindRequest, RequestID: a.id}, a.payload)
	now := time.Now()
	rec := &pendingReq{typ: a.typ, shard: shard, firstSent: now}
	if s.cfg.RequestTimeout > 0 {
		rec.deadline = now.Add(s.cfg.RequestTimeout)
		// The retransmitter stamps the attempt into its own copy: a
		// NACK can re-arm the record, and the retransmitter pick it
		// up, while the first Write below is still reading msg.
		rec.msg = append([]byte(nil), msg...)
	}
	s.mu.Lock()
	s.inflight[a.id] = rec
	s.mu.Unlock()
	if _, err := s.conns[shard].Write(msg); err != nil {
		s.mu.Lock()
		delete(s.inflight, a.id)
		s.mu.Unlock()
		return now, err
	}
	return now, nil
}

// receive matches one shard socket's responses to their requests.
// Responses to requests already expired (or duplicate responses) find
// no record and are ignored, so nothing is double counted.
func (s *session) receive(conn *net.UDPConn) {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return // deadline or close
		}
		msg := buf[:n]
		h, _, err := proto.DecodeHeader(msg)
		if err != nil || h.Kind != proto.KindResponse {
			continue
		}
		s.mu.Lock()
		rec, ok := s.inflight[h.RequestID]
		delete(s.inflight, h.RequestID)
		if ok && h.Status == proto.StatusOverloaded && s.cfg.RequestTimeout > 0 && rec.attempts < s.cfg.MaxRetries {
			// Admission NACK with retry budget left: re-arm the record
			// so the retransmitter re-sends it once the server's
			// retry-after hint (jittered) elapses. Latency keeps
			// running from the first send.
			ra, _ := proto.DecodeRetryAfter(msg, h)
			rec.deadline = time.Now().Add(s.cfg.retryDelay(rec.attempts+1, s.led.jitter(), ra))
			s.inflight[h.RequestID] = rec
			s.mu.Unlock()
			s.led.nacked()
			continue
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		if h.Status != proto.StatusOK {
			if h.Status == proto.StatusOverloaded {
				s.led.nacked()
			}
			s.led.dropped(rec.typ)
			continue
		}
		// A fan-out frontend's correlation trailer carries the query's
		// hedge count; a backend's response has none.
		corr, hasCorr := proto.DecodeCorrelation(msg, h)
		s.led.received(rec.typ, time.Since(rec.firstSent), hasCorr && corr.Attempt > 0)
	}
}

// retransmit expires or re-sends requests whose deadline passed, on
// the request's original shard socket, until the session stops.
func (s *session) retransmit() {
	defer s.wg.Done()
	tick := min(max(s.cfg.RequestTimeout/4, 200*time.Microsecond), 5*time.Millisecond)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var resend []*pendingReq
		s.mu.Lock()
		for id, rec := range s.inflight {
			if now.Before(rec.deadline) {
				continue
			}
			if rec.attempts >= s.cfg.MaxRetries {
				delete(s.inflight, id)
				s.led.timedOut(rec.typ)
				continue
			}
			rec.attempts++
			// The request header's status byte carries the attempt
			// number so the server can count retries.
			rec.msg[3] = byte(rec.attempts)
			rec.deadline = now.Add(s.cfg.RequestTimeout + s.cfg.backoffFor(rec.attempts, s.led.jitter()))
			resend = append(resend, rec)
		}
		s.mu.Unlock()
		for _, rec := range resend {
			s.conns[rec.shard].Write(rec.msg) //nolint:errcheck // fire-and-forget UDP
			s.led.retried()
		}
	}
}
