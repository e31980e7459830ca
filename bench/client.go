package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// The benchmark owns its clients: inputs are generated from the seed
// before any server exists, and the program under test sees only the
// bytes that arrive on its sockets. A client goroutine owns its socket,
// so a closed-loop client needs no lock and an open-loop client shares
// nothing between its sender and its receiver but the socket.

// replyTimeout is how long a request may stay unanswered before it
// counts as failed; it is also the drain allowed after the last send.
const replyTimeout = 2 * time.Second

// sweepEvery is how often a client looks for timed-out requests and
// pushes its read deadline forward.
const sweepEvery = 500 * time.Millisecond

const (
	outcomeOK = iota
	outcomeTimeout
	outcomeBadStatus
	outcomeBadPayload
)

// sample is one finished request as its client saw it. Times are
// nanoseconds; start counts from the rig's epoch.
type sample struct {
	start   int64  // due time (open loop) or send time (closed loop)
	lat     uint32 // start → reply read
	late    uint32 // due → actually sent (open loop only)
	queue   uint32 // ingress → worker start, from the timing trailer
	service uint32 // handler time, from the timing trailer
	typ     uint8
	outcome uint8
}

func clampNs(d int64) uint32 {
	return uint32(min(max(d, 0), int64(^uint32(0))))
}

// timingOf reads the server's timing trailer; a reply without one (the
// frontend's) reads as zero.
func timingOf(msg []byte, hdr proto.Header) (queue, service uint32) {
	tm, ok := proto.DecodeTiming(msg, hdr)
	if !ok {
		return 0, 0
	}
	return clampNs(int64(tm.Queue)), clampNs(int64(tm.Service))
}

// payloadTable returns n seeded payloads of size bytes. The first two
// bytes, where the servers' field classifier reads the request type,
// say type 0.
func payloadTable(rnd *rand.Rand, n, size int) [][]byte {
	flat := make([]byte, n*size)
	rnd.Read(flat) //nolint:errcheck // never fails
	table := make([][]byte, n)
	for i := range table {
		table[i] = flat[i*size : (i+1)*size : (i+1)*size]
		binary.LittleEndian.PutUint16(table[i], 0)
	}
	return table
}

// wire is one client connection: whole messages out, whole messages
// in. A message returned by recv is valid until the next recv.
type wire interface {
	send(msg []byte) error
	recv() ([]byte, error)
	setReadDeadline(t time.Time) error
	Close() error
}

type udpWire struct {
	*net.UDPConn
	buf [4096]byte
}

func dialUDP(addr string) (*udpWire, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &udpWire{UDPConn: conn}, nil
}

func (w *udpWire) send(msg []byte) error {
	_, err := w.Write(msg)
	return err
}

func (w *udpWire) recv() ([]byte, error) {
	n, err := w.Read(w.buf[:])
	return w.buf[:n], err
}

func (w *udpWire) setReadDeadline(t time.Time) error { return w.SetReadDeadline(t) }

// tcpWire frames messages with the transport's 4-byte little-endian
// length prefix. Requests queue in wbuf and leave in one write when
// recv is about to block, as a pipelining client's would.
type tcpWire struct {
	net.Conn
	rd      *bufio.Reader
	wbuf    []byte
	discard int // bytes of the frame handed out by the previous recv
}

const tcpReadBuf = 64 << 10

func dialTCP(addr string) (*tcpWire, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpWire{Conn: conn, rd: bufio.NewReaderSize(conn, tcpReadBuf)}, nil
}

func (w *tcpWire) send(msg []byte) error {
	w.wbuf = binary.LittleEndian.AppendUint32(w.wbuf, uint32(len(msg)))
	w.wbuf = append(w.wbuf, msg...)
	return nil
}

// frameLen reports the length of the next frame if all of it is
// already buffered.
func (w *tcpWire) frameLen() (int, bool) {
	if w.rd.Buffered() < 4 {
		return 0, false
	}
	head, _ := w.rd.Peek(4)
	n := int(binary.LittleEndian.Uint32(head))
	return n, w.rd.Buffered() >= 4+n
}

func (w *tcpWire) recv() ([]byte, error) {
	// Peek, not Read: a read deadline that fires mid-frame then loses
	// no bytes, and the frame is consumed on the next call.
	w.rd.Discard(w.discard) //nolint:errcheck // already buffered
	w.discard = 0
	if _, whole := w.frameLen(); !whole && len(w.wbuf) > 0 {
		_, err := w.Conn.Write(w.wbuf)
		w.wbuf = w.wbuf[:0]
		if err != nil {
			return nil, err
		}
	}
	head, err := w.rd.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(head))
	if n < proto.HeaderSize || 4+n > tcpReadBuf {
		return nil, fmt.Errorf("tcp frame length %d out of range", n)
	}
	frame, err := w.rd.Peek(4 + n)
	if err != nil {
		return nil, err
	}
	w.discard = 4 + n
	return frame[4:], nil
}

func (w *tcpWire) setReadDeadline(t time.Time) error { return w.SetReadDeadline(t) }

func isTimeout(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }

// closedClient keeps depth requests outstanding on one connection from
// one goroutine: every reply read sends the next request.
type closedClient struct {
	w        wire
	depth    int
	payloads [][]byte
	epoch    time.Time
	stop     *atomic.Bool  // set: issue nothing new, wait for what is out
	replies  *atomic.Int64 // shared progress count, for the warm-up condition

	// Filled by run, read after it returns.
	samples []sample
	sent    int64
}

type slot struct {
	seq    uint64 // also the wire RequestID; seq % depth is the slot index
	sentAt int64
	live   bool
}

func (c *closedClient) run() error {
	slots := make([]slot, c.depth)
	msg := make([]byte, 0, proto.HeaderSize+len(c.payloads[0]))
	out := 0
	issue := func(k int, seq uint64) error {
		payload := c.payloads[seq%uint64(len(c.payloads))]
		msg = proto.AppendMessage(msg[:0], proto.Header{Kind: proto.KindRequest, RequestID: seq}, payload)
		slots[k] = slot{seq: seq, sentAt: int64(time.Since(c.epoch)), live: true}
		c.sent++
		out++
		return c.w.send(msg)
	}
	// settle books slot k's outcome and reuses or retires the slot.
	settle := func(k int, now int64, s sample) error {
		s.start = slots[k].sentAt
		s.lat = clampNs(now - s.start)
		c.samples = append(c.samples, s)
		out--
		if c.stop.Load() {
			slots[k].live = false
			return nil
		}
		return issue(k, slots[k].seq+uint64(c.depth))
	}
	sweep := func(now int64) error {
		for k := range slots {
			if slots[k].live && now-slots[k].sentAt > int64(replyTimeout) {
				if err := settle(k, now, sample{outcome: outcomeTimeout}); err != nil {
					return err
				}
			}
		}
		return c.w.setReadDeadline(time.Now().Add(2 * sweepEvery))
	}

	for k := range slots {
		if err := issue(k, uint64(k)); err != nil {
			return err
		}
	}
	nextSweep := int64(0)
	for out > 0 {
		if now := int64(time.Since(c.epoch)); now >= nextSweep {
			if err := sweep(now); err != nil {
				return err
			}
			nextSweep = now + int64(sweepEvery)
		}
		reply, err := c.w.recv()
		if isTimeout(err) {
			nextSweep = 0
			continue
		}
		if err != nil {
			return err
		}
		now := int64(time.Since(c.epoch))
		hdr, payload, err := proto.DecodeHeader(reply)
		k := int(hdr.RequestID % uint64(c.depth))
		if err != nil || hdr.Kind != proto.KindResponse || !slots[k].live || slots[k].seq != hdr.RequestID {
			continue // malformed, or the late reply to a request already timed out
		}
		s := sample{}
		s.queue, s.service = timingOf(reply, hdr)
		switch {
		case hdr.Status != proto.StatusOK:
			s.outcome = outcomeBadStatus
		case !bytes.Equal(payload, c.payloads[hdr.RequestID%uint64(len(c.payloads))]):
			s.outcome = outcomeBadPayload
		}
		c.replies.Add(1)
		if err := settle(k, now, s); err != nil {
			return err
		}
	}
	return nil
}

// arrival is one entry of an open-loop schedule.
type arrival struct {
	due int64 // ns after the schedule starts
	typ uint8
}

// poissonSchedule draws span's worth of Poisson arrivals at rate per
// second; longShare of them are type 1, the rest type 0.
func poissonSchedule(rnd *rand.Rand, rate, longShare float64, span time.Duration) []arrival {
	var sched []arrival
	for at := 0.0; ; {
		at += rnd.ExpFloat64() / rate * 1e9
		if at >= float64(span) {
			return sched
		}
		a := arrival{due: int64(at)}
		if rnd.Float64() < longShare {
			a.typ = 1
		}
		sched = append(sched, a)
	}
}

// openClient sends a pre-generated schedule on one UDP socket, one
// goroutine sending and one receiving. Request i of the schedule
// carries RequestID i, so the two goroutines write disjoint arrays and
// nothing is read until both have returned.
type openClient struct {
	w        *udpWire
	sched    []arrival
	payloads [][]byte // one per schedule entry
	epoch    time.Time
	base     int64         // epoch offset of schedule time 0
	stopAt   *atomic.Int64 // epoch offset after which nothing is due; 0 = not yet known
	replies  *atomic.Int64

	sentN  atomic.Int64 // entries sent, published when the sender returns
	sentAt []int64      // sender's
	recvAt []int64      // receiver's, like the three below
	queue  []uint32
	svc    []uint32
	status []uint8 // outcome+1; 0 = no reply seen
}

func newOpenClient(w *udpWire, sched []arrival, payloads [][]byte, epoch time.Time, stopAt *atomic.Int64, replies *atomic.Int64) *openClient {
	n := len(sched)
	return &openClient{
		w: w, sched: sched, payloads: payloads, epoch: epoch,
		base: int64(time.Since(epoch)), stopAt: stopAt, replies: replies,
		sentAt: make([]int64, n), recvAt: make([]int64, n),
		queue: make([]uint32, n), svc: make([]uint32, n), status: make([]uint8, n),
	}
}

func (c *openClient) sender() error {
	sent := 0
	defer func() { c.sentN.Store(int64(sent) + 1) }() // +1: 0 means still sending
	msg := make([]byte, 0, proto.HeaderSize+len(c.payloads[0]))
	for i, a := range c.sched {
		due := c.base + a.due
		if stop := c.stopAt.Load(); stop != 0 && due >= stop {
			return nil
		}
		if wait := due - int64(time.Since(c.epoch)); wait > 0 {
			preciseSleep(time.Duration(wait))
		}
		msg = proto.AppendMessage(msg[:0], proto.Header{Kind: proto.KindRequest, TypeID: uint16(a.typ), RequestID: uint64(i)}, c.payloads[i])
		c.sentAt[i] = int64(time.Since(c.epoch))
		sent = i + 1
		if err := c.w.send(msg); err != nil {
			return err
		}
	}
	return errors.New("open-loop schedule ran out before the run ended")
}

func (c *openClient) receiver() error {
	got := int64(0)
	var doneAt time.Time // when the sender was first seen finished
	nextDeadline := time.Time{}
	for {
		now := time.Now()
		if sentN := c.sentN.Load(); sentN != 0 {
			if doneAt.IsZero() {
				doneAt = now
			}
			if got >= sentN-1 || now.Sub(doneAt) > replyTimeout {
				return nil
			}
		}
		if now.After(nextDeadline) {
			if err := c.w.setReadDeadline(now.Add(100 * time.Millisecond)); err != nil {
				return err
			}
			nextDeadline = now.Add(50 * time.Millisecond)
		}
		reply, err := c.w.recv()
		if isTimeout(err) {
			continue
		}
		if err != nil {
			return err
		}
		at := int64(time.Since(c.epoch))
		hdr, payload, err := proto.DecodeHeader(reply)
		i := int(hdr.RequestID)
		if err != nil || hdr.Kind != proto.KindResponse || hdr.RequestID >= uint64(len(c.sched)) || c.status[i] != 0 {
			continue // malformed, or a second reply to the same request
		}
		outcome := uint8(outcomeOK)
		switch {
		case hdr.Status != proto.StatusOK:
			outcome = outcomeBadStatus
		case !bytes.Equal(payload, c.payloads[i]):
			outcome = outcomeBadPayload
		}
		c.recvAt[i] = at
		c.queue[i], c.svc[i] = timingOf(reply, hdr)
		c.status[i] = outcome + 1
		got++
		c.replies.Add(1)
	}
}

// collect turns the arrays into samples once both goroutines are done.
// Latency runs from the due time, so a late generator shows as latency
// and, separately, as lateness.
func (c *openClient) collect() (samples []sample, sent int64) {
	sent = c.sentN.Load() - 1
	samples = make([]sample, sent)
	for i := range samples {
		due := c.base + c.sched[i].due
		s := sample{start: due, late: clampNs(c.sentAt[i] - due), typ: c.sched[i].typ, queue: c.queue[i], service: c.svc[i]}
		lat := c.recvAt[i] - due
		switch {
		case c.status[i] == 0 || lat > int64(replyTimeout):
			s.outcome, s.lat = outcomeTimeout, clampNs(int64(replyTimeout))
		default:
			s.outcome, s.lat = c.status[i]-1, clampNs(lat)
		}
		samples[i] = s
	}
	return samples, sent
}
