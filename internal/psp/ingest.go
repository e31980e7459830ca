package psp

import (
	"net"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/spsc"
)

// The request path, written once for every transport: the paper's net
// worker (§4.3.1) is one component, whatever carries the bytes. A
// transport's reader moves bytes off its socket and calls two steps:
//
//   - ingest turns one received frame into burst entries (the request,
//     plus a chaos duplicate) or into one counted drop;
//   - burst places the entries on the ingress ring in one
//     synchronization and hands the refused tail to the lane's shed.
//
// On the way back, Request.encode is the one response encoder, and the
// lane's send moves the encoded bytes. UDP and TCP keep only what moves
// bytes: sockets, burst reads, framing and the TX path.

// egress is where a request's response goes: a network lane, or an
// in-process submitter.
type egress interface {
	// send delivers r's response, once, from the goroutine that
	// settles r. resp.Payload is valid only during the call. send may
	// take ownership of r.buf by nilling the field.
	send(r *Request, resp Response)
}

// lane is one network ingress lane (a UDP shard, a TCP connection) as
// the request path sees it.
type lane interface {
	egress
	// shed disposes of a well-formed request the pipeline refused, by
	// the transport's rule (DESIGN.md §6): a datagram is dropped and
	// counted in RxDrops; a stream answers StatusDropped and counts it
	// in RxSheds.
	shed(r *Request)
	// ledger is where the lane books how its frames ended.
	ledger() *ingressLedger
}

// ingressLedger counts how one lane's frames ended. With the chaos
// layer's drop counter, every received frame lands in exactly one.
// UDP and TCP shards embed it; a UDP shard is its own lane.
type ingressLedger struct {
	rx      atomic.Uint64 // entered the pipeline
	rxDrops atomic.Uint64 // dropped unanswered: malformed; UDP also a full ingress ring
	rxSheds atomic.Uint64 // refused: pool exhausted; TCP also a full ingress ring
}

func (l *ingressLedger) ledger() *ingressLedger { return l }

// ingressTotals sums a transport's shard ledgers.
func ingressTotals[S interface{ ledger() *ingressLedger }](shards []S) (sum struct{ rx, drops, sheds uint64 }) {
	for _, sh := range shards {
		l := sh.ledger()
		sum.rx += l.rx.Load()
		sum.drops += l.rxDrops.Load()
		sum.sheds += l.rxSheds.Load()
	}
	return sum
}

// replyChan is an in-process submitter's egress (Submit's channel).
type replyChan chan Response

func (ch replyChan) send(_ *Request, resp Response) {
	// The payload aliases the worker's scratch buffer; copy it before
	// handing the response to the waiting goroutine.
	resp.Payload = append([]byte(nil), resp.Payload...)
	ch <- resp
}

// ingest is the request path's first step. frame is one received proto
// message; buf is the pooled buffer that holds it, or nil when frame
// sits in transient scratch, in which case the request copies its
// payload. peer is the datagram reply address (nil on a stream).
// ingest appends the request, plus a chaos duplicate, to batch — or
// ends the frame as one counted drop, malformed (the lane's RxDrops)
// or eaten by the chaos layer (its drop counter), and releases buf.
func (s *Server) ingest(batch []*Request, frame []byte, buf *spsc.Buffer, l lane, peer *net.UDPAddr) []*Request {
	hdr, payload, err := proto.DecodeHeader(frame)
	malformed := err != nil || hdr.Kind != proto.KindRequest
	if malformed {
		l.ledger().rxDrops.Add(1)
	} else if hdr.Status != 0 {
		// Requests stamp their retry attempt in the header status byte
		// (see proto); attempt > 0 is a client retransmission.
		s.noteRetry()
	}
	// Chaos layer: the frame may vanish here, as if lost on the wire
	// before the net worker ever saw it.
	if malformed || s.inj.IngressDrop() {
		if buf != nil {
			buf.Release()
		}
		return batch
	}
	r := &Request{
		typ:     int(hdr.TypeID), // until classified: what a shed echoes
		payload: payload,
		buf:     buf,
		out:     l,
		peer:    peer,
		wireID:  hdr.RequestID,
	}
	if buf == nil {
		r.payload = append([]byte(nil), payload...)
	}
	// A fan-out frontend tags sub-requests with a correlation trailer;
	// capture it by value so the response can echo it after the
	// ingress buffer is overwritten.
	r.corr, r.hasCorr = proto.DecodeCorrelation(frame, hdr)
	batch = append(batch, r)
	// Chaos layer: duplicated delivery, as a retransmitting network
	// would produce. The copy owns its payload and has no ingress
	// buffer, so its response takes the allocating fallback and cannot
	// race the original for the buffer.
	if s.inj.IngressDup() {
		dup := *r
		dup.buf = nil
		dup.payload = append([]byte(nil), payload...)
		batch = append(batch, &dup)
	}
	return batch
}

// burst is the request path's second step: it places batch on the
// ingress ring in one synchronization, books what entered, and hands
// the refused tail to the lane's shed. It returns how many entered.
// The whole batch is booked before the ring publishes it, and the
// refused tail taken back after: once a request is on the ring the
// dispatcher may answer it at once, and no reply may reach a client
// before its request is counted.
func (s *Server) burst(batch []*Request, l lane) int {
	rx := &l.ledger().rx
	rx.Add(uint64(len(batch)))
	n := s.injectBatch(batch)
	if refused := len(batch) - n; refused > 0 {
		rx.Add(^uint64(refused - 1))
	}
	for _, r := range batch[n:] {
		l.shed(r)
	}
	return n
}

// encode is the one response encoder. It builds r's response (header,
// timing trailer, the retry-after hint if any, and the echoed
// correlation trailer if the request carried one) behind prefix bytes
// the transport fills in: 0 for a datagram, the length prefix on a
// stream. The frame goes in r's own ingress buffer when it fits (the
// zero-copy path, reported by inBuf) and in a one-off allocation
// otherwise.
func (r *Request) encode(resp Response, prefix int) (msg []byte, inBuf bool) {
	need := prefix + proto.ResponseOverhead + len(resp.Payload)
	if resp.RetryAfter > 0 {
		need += proto.RetryAfterSize
	}
	if r.hasCorr {
		need += proto.CorrelationSize
	}
	if inBuf = r.buf != nil && cap(r.buf.Data) >= need; inBuf {
		msg = r.buf.Data[:prefix]
	} else {
		msg = make([]byte, prefix, need)
	}
	msg = proto.AppendResponse(msg, proto.Header{
		Status:    resp.Status,
		TypeID:    uint16(resp.Type & 0xFFFF),
		RequestID: r.wireID,
	}, resp.Payload, proto.Timing{Queue: resp.QueueDelay, Service: resp.Service})
	if resp.RetryAfter > 0 {
		msg = proto.AppendRetryAfter(msg, resp.RetryAfter)
	}
	if r.hasCorr {
		msg = proto.AppendCorrelation(msg, r.corr)
	}
	return msg, inBuf
}
