package psp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/spsc"
)

// The TCP datapath at parity with the sharded UDP path (§4.3.1's
// amortized packet path, on a byte stream): every message is a 4-byte
// little-endian length prefix followed by the usual header+payload
// frame, many requests ride in flight per connection (pipelining), and
// responses go back out-of-order as they complete, matched by the
// echoed header RequestID (plus the echoed correlation trailer for
// fan-out sub-requests).
//
//   - Ingress: per-connection readers decode *bursts* of frames into
//     pooled buffers and hand each burst to the dispatcher in a single
//     ring synchronization (injectBatch -> MPSC.TryPutBatch, one CAS).
//   - Egress: workers encode responses into the request's own ingress
//     buffer (zero-copy) and push the frame onto the connection's TX
//     ring; a per-connection TX goroutine, parked while the ring is
//     empty, drains it in batches and lands each batch with a single
//     vectored write (net.Buffers). A full ring falls back to an inline
//     write, never a blocked worker.
//   - Lifecycle: the accept path is sharded across Shards listeners
//     (SO_REUSEPORT on unix; a shared-listener fallback elsewhere),
//     admission is capped by MaxConns, idle connections are evicted
//     after IdleTimeout, and Close drains gracefully: every request
//     already accepted into the pipeline is answered and flushed
//     before the sockets die.

// maxTCPFrame bounds a single framed message (header + payload +
// trailers), excluding the length prefix.
const maxTCPFrame = 1 << 16

// tcpLenPrefixSize is the frame length prefix the stream transport
// puts in front of every proto message.
const tcpLenPrefixSize = 4

// tcpBufPayload is the largest request payload a pooled buffer
// accepts; larger (but still legal) frames enter the pipeline with a
// copied payload instead. The pooled buffer carries headroom for the
// length prefix, the response trailers, and an echoed correlation
// trailer, so the ingress bytes can be reused as the egress frame.
const tcpBufPayload = 2048

// tcpBufSize is the pooled buffer capacity: prefix + header + payload
// + timing trailer + correlation trailer.
const tcpBufSize = tcpLenPrefixSize + proto.HeaderSize + tcpBufPayload + proto.TimingSize + proto.CorrelationSize

// tcpTxBatch caps how many queued frames one TX wakeup gathers into a
// single writev.
const tcpTxBatch = 64

// tcpDepthBuckets are the pipeline-depth histogram upper bounds
// (powers of two; a final implicit bucket catches the rest).
var tcpDepthBuckets = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// TCPOptions tunes the pipelined TCP datapath. The zero value means
// one accept shard, 32-frame bursts, 4096 pooled buffers per shard, a
// 256-frame TX ring per connection, unlimited connections, and no
// idle eviction.
type TCPOptions struct {
	// Shards is the number of accept shards. On unix every shard gets
	// its own SO_REUSEPORT listener on the same address and the kernel
	// spreads incoming connections across them; elsewhere the shards
	// share one listener and split the accept work. Each shard owns a
	// buffer pool, so a connection's buffers never cross shards.
	Shards int
	// Burst caps how many already-buffered frames one reader wakeup
	// decodes before the batch goes to the dispatcher.
	Burst int
	// PoolSize is the number of pooled ingress buffers per shard.
	PoolSize int
	// TXRing is the per-connection egress ring capacity (frames).
	TXRing int
	// MaxConns caps concurrently open connections across all shards;
	// excess accepts are closed immediately and counted in
	// ConnsRejected. 0 means unlimited.
	MaxConns int
	// IdleTimeout evicts a connection that has neither delivered a
	// byte nor had a response in flight for this long. 0 disables
	// idle eviction.
	IdleTimeout time.Duration
}

func (o *TCPOptions) fill() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Burst <= 0 {
		o.Burst = 32
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4096
	}
	if o.TXRing <= 0 {
		o.TXRing = 256
	}
}

// TCPServer exposes a Server over TCP — the stateful-dispatcher
// deployment the paper's §6 sketches — with the same batched, pooled,
// sharded datapath as the UDP transport.
type TCPServer struct {
	Server *Server
	opts   TCPOptions
	lns    []net.Listener
	shards []*tcpShard

	connMu sync.Mutex
	conns  map[*tcpConn]struct{}

	acceptWG sync.WaitGroup
	readWG   sync.WaitGroup
	txWG     sync.WaitGroup
	closed   atomic.Bool

	connsAccepted atomic.Uint64
	connsOpen     atomic.Int64
	connsEvicted  atomic.Uint64
	connsRejected atomic.Uint64

	// Pipeline-depth histogram: how many responses were outstanding on
	// the connection when each request was accepted. depthBuckets[i]
	// counts samples <= tcpDepthBuckets[i]; the last slot is +Inf.
	depthBuckets [len(tcpDepthBuckets) + 1]atomic.Uint64
	depthSum     atomic.Uint64
	depthCount   atomic.Uint64
}

// tcpShard is one accept lane: a listener's worth of connections
// sharing a buffer pool and ingress counters.
type tcpShard struct {
	pool *spsc.Pool
	// poolMu guards Get: the pool's free list is single-consumer, and
	// a shard may host several connection readers.
	poolMu sync.Mutex

	ingressLedger
	txFull atomic.Uint64 // responses written inline because a TX ring was full
}

func (sh *tcpShard) getBuf() *spsc.Buffer {
	sh.poolMu.Lock()
	b := sh.pool.Get()
	sh.poolMu.Unlock()
	return b
}

// tcpTxFrame is one encoded response waiting on a connection's egress
// ring. buf is the pooled buffer msg lives in (the reused ingress
// buffer, the zero-copy path), released once msg is on the wire; nil
// for an allocated message.
type tcpTxFrame struct {
	buf *spsc.Buffer
	msg []byte
}

// tcpConn is one accepted connection: its reader goroutine feeds the
// dispatcher, its TX goroutine owns the socket writes.
type tcpConn struct {
	t    *TCPServer
	sh   *tcpShard
	conn net.Conn
	tx   *spsc.MPSC[tcpTxFrame]
	// txPark is where the TX goroutine sleeps while it has nothing to
	// do. What gives it something to do wakes it: a frame put on tx, an
	// inline write that settles the last owed response, and finish.
	txPark *spsc.Parker

	// writeMu serializes the TX goroutine's writev with inline
	// fallback writes, so frames never interleave on the stream.
	writeMu sync.Mutex

	// pending counts responses owed on this connection: incremented
	// when a request is accepted into the pipeline (or a shed reply is
	// queued), decremented after the response frame reaches the
	// socket. The TX goroutine closes a finished connection only once
	// this hits zero.
	pending atomic.Int64

	scratch []byte // oversized/shed frame reads; allocated on first use

	// closing is connOpen until finish marks the connection done.
	closing atomic.Int32
}

// tcpConn.closing states.
const (
	connOpen    int32 = iota
	connClosing       // peer went away, or the server is closing
	connEvicted       // the server is dropping it (idle timeout, protocol error)
)

// ListenTCP binds addr with a single accept shard and default options,
// and starts the datapath on top of an already-configured (not yet
// started) Server.
func ListenTCP(addr string, srv *Server) (*TCPServer, error) {
	return ListenTCPShards(addr, srv, TCPOptions{})
}

// ListenTCPShards binds opts.Shards listeners on addr and starts the
// full pipelined datapath. On unix the listeners share the address via
// SO_REUSEPORT and the kernel spreads incoming connections across
// them; on other platforms a single listener is shared by opts.Shards
// accept goroutines.
func ListenTCPShards(addr string, srv *Server, opts TCPOptions) (*TCPServer, error) {
	opts.fill()
	t := &TCPServer{
		Server: srv,
		opts:   opts,
		conns:  make(map[*tcpConn]struct{}),
	}
	for i := 0; i < opts.Shards; i++ {
		t.shards = append(t.shards, &tcpShard{pool: spsc.NewPool(opts.PoolSize, tcpBufSize)})
	}
	if reusePortSupported && opts.Shards > 1 {
		for i := 0; i < opts.Shards; i++ {
			bind := addr
			if i > 0 {
				// Later shards must join the exact port the first bind
				// resolved (addr may carry port 0).
				bind = t.lns[0].Addr().String()
			}
			ln, err := reusePortListen(bind)
			if err != nil {
				for _, l := range t.lns {
					l.Close()
				}
				return nil, fmt.Errorf("psp: listen tcp %q shard %d: %w", addr, i, err)
			}
			t.lns = append(t.lns, ln)
		}
	} else {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("psp: listen tcp %q: %w", addr, err)
		}
		t.lns = append(t.lns, ln)
	}
	srv.Start()
	srv.attachTCP(t)
	for i := 0; i < opts.Shards; i++ {
		ln := t.lns[0]
		if len(t.lns) > 1 {
			ln = t.lns[i]
		}
		t.acceptWG.Add(1)
		go t.acceptLoop(ln, t.shards[i])
	}
	return t, nil
}

// Addr reports the primary bound address.
func (t *TCPServer) Addr() net.Addr { return t.lns[0].Addr() }

// Addrs reports every listener's bound address (all equal under
// SO_REUSEPORT sharding).
func (t *TCPServer) Addrs() []net.Addr {
	out := make([]net.Addr, len(t.lns))
	for i, ln := range t.lns {
		out[i] = ln.Addr()
	}
	return out
}

// Shards reports the number of accept shards.
func (t *TCPServer) Shards() int { return len(t.shards) }

// Received reports frames accepted into the pipeline across all
// shards.
func (t *TCPServer) Received() uint64 { return ingressTotals(t.shards).rx }

// RxDrops reports malformed frames dropped at ingress. Refused frames,
// which the stream answers, are counted in RxSheds.
func (t *TCPServer) RxDrops() uint64 { return ingressTotals(t.shards).drops }

// RxSheds reports frames answered StatusDropped without entering the
// pipeline: the shard's buffer pool was exhausted, or the ingress ring
// was full.
func (t *TCPServer) RxSheds() uint64 { return ingressTotals(t.shards).sheds }

// TxRingFull reports responses that bypassed a TX ring (written inline
// by the completing worker) because the ring was full.
func (t *TCPServer) TxRingFull() uint64 {
	var n uint64
	for _, sh := range t.shards {
		n += sh.txFull.Load()
	}
	return n
}

// ConnsAccepted reports connections admitted since start.
func (t *TCPServer) ConnsAccepted() uint64 { return t.connsAccepted.Load() }

// ConnsOpen reports currently open connections.
func (t *TCPServer) ConnsOpen() int64 { return t.connsOpen.Load() }

// ConnsEvicted reports connections closed by the server (idle timeout
// or protocol error).
func (t *TCPServer) ConnsEvicted() uint64 { return t.connsEvicted.Load() }

// ConnsRejected reports connections shed at admission because MaxConns
// was reached.
func (t *TCPServer) ConnsRejected() uint64 { return t.connsRejected.Load() }

// poolOutstanding reports checked-out pooled buffers across shards
// (leak diagnostics for tests).
func (t *TCPServer) poolOutstanding() int64 {
	var n int64
	for _, sh := range t.shards {
		n += sh.pool.Outstanding()
	}
	return n
}

// Close stops accepting, drains gracefully — every request already
// accepted into the pipeline is answered and its response flushed to
// the wire — then closes the connections and stops the server.
func (t *TCPServer) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	var err error
	for _, ln := range t.lns {
		if e := ln.Close(); e != nil && err == nil {
			err = e
		}
	}
	t.acceptWG.Wait()
	// Wake blocked readers; they observe closed and stop taking new
	// frames. Re-arm the wakeup until every reader is out, in case a
	// reader re-set its idle deadline concurrently with ours.
	readersDone := make(chan struct{})
	go func() {
		t.readWG.Wait()
		close(readersDone)
	}()
	for done := false; !done; {
		t.connMu.Lock()
		for c := range t.conns {
			c.conn.SetReadDeadline(time.Now()) //nolint:errcheck
		}
		t.connMu.Unlock()
		select {
		case <-readersDone:
			done = true
		case <-time.After(2 * time.Millisecond):
		}
	}
	// No reader remains, so no new requests arrive: Stop settles
	// everything in flight (queued requests answer StatusDropped)
	// through the respond path, which lands frames on the TX rings.
	t.Server.Stop()
	t.connMu.Lock()
	conns := make([]*tcpConn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.connMu.Unlock()
	for _, c := range conns {
		c.finish(false)
	}
	t.txWG.Wait()
	return err
}

// acceptLoop admits connections on one shard's listener.
func (t *TCPServer) acceptLoop(ln net.Listener, sh *tcpShard) {
	defer t.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if max := t.opts.MaxConns; max > 0 && t.connsOpen.Load() >= int64(max) {
			t.connsRejected.Add(1)
			conn.Close()
			continue
		}
		c := &tcpConn{t: t, sh: sh, conn: conn, tx: spsc.NewMPSC[tcpTxFrame](t.opts.TXRing), txPark: spsc.NewParker()}
		t.connMu.Lock()
		if t.closed.Load() {
			// Raced with Close: a fresh connection must not slip past
			// the drain.
			t.connMu.Unlock()
			conn.Close()
			continue
		}
		t.conns[c] = struct{}{}
		t.connMu.Unlock()
		t.connsAccepted.Add(1)
		t.connsOpen.Add(1)
		t.readWG.Add(1)
		go c.readLoop()
		t.txWG.Add(1)
		go c.txLoop()
	}
}

// finish ends a connection's intake exactly once and leaves the rest
// to its TX goroutine, which writes out every response still owed —
// while the server runs, every accepted request settles (worker
// completion or drop), and during Close the server has already stopped
// and settled, so pending strictly decreases to zero — then closes the
// socket and unregisters. Callers have stopped reading, so no response
// becomes owed after this. evicted marks server-initiated closes (idle
// timeout, protocol error) for the eviction counter.
func (c *tcpConn) finish(evicted bool) {
	state := connClosing
	if evicted {
		state = connEvicted
	}
	if c.closing.CompareAndSwap(connOpen, state) {
		c.txPark.Wake()
	}
}

// readLoop is this connection's net worker: it reads pipelined frames
// (bursts of them when the stream runs ahead), runs each through the
// request path's ingest step, and delivers each burst.
func (c *tcpConn) readLoop() {
	defer c.t.readWG.Done()
	t := c.t
	rd := bufio.NewReaderSize(c.conn, 1<<16)
	var lenBuf [tcpLenPrefixSize]byte
	batch := make([]*Request, 0, t.opts.Burst)
	for {
		if t.closed.Load() {
			return // drain: Close owns the rest of the lifecycle
		}
		if idle := t.opts.IdleTimeout; idle > 0 {
			c.conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck
		}
		// Blocking read of the next frame's length prefix.
		n, err := io.ReadFull(rd, lenBuf[:])
		if err != nil {
			if t.closed.Load() {
				return
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if n == 0 && c.pending.Load() > 0 {
					// Responses still owed: not idle, keep serving.
					continue
				}
				c.finish(true) // idle (or mid-prefix stall): evict
				return
			}
			c.finish(false) // peer closed or reset
			return
		}
		batch = batch[:0]
		frameLen := binary.LittleEndian.Uint32(lenBuf[:])
		if !c.readFrame(rd, frameLen, &batch) {
			c.deliver(batch)
			c.finish(true) // invalid frame or broken stream
			return
		}
		// Opportunistic burst: decode whatever additional complete
		// frames the stream already buffered, without blocking.
		for len(batch) < cap(batch) {
			if rd.Buffered() < tcpLenPrefixSize {
				break
			}
			p, _ := rd.Peek(tcpLenPrefixSize)
			next := binary.LittleEndian.Uint32(p)
			if next < proto.HeaderSize || next > maxTCPFrame {
				c.deliver(batch)
				c.sh.rxDrops.Add(1)
				c.finish(true)
				return
			}
			if rd.Buffered() < tcpLenPrefixSize+int(next) {
				break
			}
			rd.Discard(tcpLenPrefixSize) //nolint:errcheck // fully buffered
			if !c.readFrame(rd, next, &batch) {
				c.deliver(batch)
				c.finish(true)
				return
			}
		}
		c.deliver(batch)
	}
}

// readFrame consumes one frame body of frameLen bytes and runs it
// through ingest, appending to batch. It reports false when the
// connection must go away (invalid length or broken stream);
// individually malformed but correctly framed messages are dropped
// without killing the connection.
func (c *tcpConn) readFrame(rd *bufio.Reader, frameLen uint32, batch *[]*Request) bool {
	sh := c.sh
	if frameLen < proto.HeaderSize || frameLen > maxTCPFrame {
		sh.rxDrops.Add(1)
		return false
	}
	// Reading at the prefix offset keeps the buffer layout identical
	// to the egress frame the encoder later builds in place.
	pooled := tcpLenPrefixSize+int(frameLen) <= tcpBufSize
	var frame []byte
	var buf *spsc.Buffer
	if pooled {
		if buf = sh.getBuf(); buf != nil {
			frame = buf.Data[tcpLenPrefixSize : tcpLenPrefixSize+int(frameLen)]
		}
	}
	if frame == nil {
		// Pool exhausted, or the frame outgrows a pooled buffer: read
		// through connection-local scratch.
		if c.scratch == nil {
			c.scratch = make([]byte, maxTCPFrame)
		}
		frame = c.scratch[:frameLen]
	}
	if _, err := io.ReadFull(rd, frame); err != nil {
		if buf != nil {
			buf.Release()
		}
		return false
	}
	start := len(*batch)
	*batch = c.t.Server.ingest(*batch, frame, buf, c, nil)
	if buf == nil && pooled {
		// Pool exhaustion (not oversize): shed now, so the pipelined
		// client learns at once instead of timing out.
		for _, r := range (*batch)[start:] {
			c.shed(r)
		}
		*batch = (*batch)[:start]
	}
	return true
}

// deliver runs a burst through the request path's burst step; every
// accepted request owes a response (pending).
func (c *tcpConn) deliver(batch []*Request) {
	if n := c.t.Server.burst(batch, c); n > 0 {
		depth := uint64(c.pending.Add(int64(n)))
		c.t.recordDepth(depth, n)
	}
}

// recordDepth samples the pipeline-depth histogram: n requests were
// accepted while depth responses were outstanding on the connection
// (one sample per request, valued at the post-burst depth).
func (t *TCPServer) recordDepth(depth uint64, n int) {
	i := 0
	for i < len(tcpDepthBuckets) && depth > tcpDepthBuckets[i] {
		i++
	}
	t.depthBuckets[i].Add(uint64(n))
	t.depthSum.Add(depth * uint64(n))
	t.depthCount.Add(uint64(n))
}

// send is the stream egress: encode the length-prefixed response (in
// the request's own ingress buffer when it fits) and push it onto the
// connection's TX ring.
func (c *tcpConn) send(r *Request, resp Response) {
	msg, inBuf := r.encode(resp, tcpLenPrefixSize)
	binary.LittleEndian.PutUint32(msg, uint32(len(msg)-tcpLenPrefixSize))
	frame := tcpTxFrame{msg: msg}
	if inBuf {
		// Take ownership of the ingress buffer: the settling goroutine
		// skips its release, and whoever writes the frame returns the
		// buffer to the pool once it is on the wire.
		frame.buf, r.buf = r.buf, nil
	}
	if c.tx.TryPut(frame) {
		c.txPark.Wake()
		return
	}
	// TX ring full: transmit inline rather than block a worker.
	c.sh.txFull.Add(1)
	c.writeInline(frame.msg)
	if frame.buf != nil {
		frame.buf.Release()
	}
}

// shed is the stream rule for a request the pipeline refused: answer
// StatusDropped at once, through the normal TX path, counted in
// RxSheds. A pipelined client on a reliable stream would otherwise
// learn of the refusal only by timing out.
func (c *tcpConn) shed(r *Request) {
	c.sh.rxSheds.Add(1)
	c.pending.Add(1)
	r.reply(Response{Type: r.typ, Status: proto.StatusDropped})
}

func (c *tcpConn) ledger() *ingressLedger { return c.sh.ledger() }

// writeInline transmits one owed frame under the connection's write
// lock (the fallback path when the TX ring is full) and settles it;
// the TX goroutine may be parked waiting for exactly that.
func (c *tcpConn) writeInline(msg []byte) {
	c.writeMu.Lock()
	c.conn.Write(msg) //nolint:errcheck // client may have gone
	c.writeMu.Unlock()
	c.pending.Add(-1)
	c.txPark.Wake()
}

// txLoop owns the connection's socket writes: it gathers queued frames
// — many per wakeup once responses pile up — and lands the batch with
// a single vectored write, then recycles the pooled buffers. When the
// ring runs dry it parks, so an idle connection costs no CPU and a
// completing worker hands its frame over with one goroutine wakeup.
// Once finish has marked the connection and nothing is owed any more,
// it closes the socket and unregisters.
func (c *tcpConn) txLoop() {
	defer c.t.txWG.Done()
	frames := make([]tcpTxFrame, 0, tcpTxBatch)
	vecs := make(net.Buffers, 0, tcpTxBatch)
	for {
		frames = frames[:0]
		for len(frames) < tcpTxBatch {
			f, ok := c.tx.TryGet()
			if !ok {
				break
			}
			frames = append(frames, f)
		}
		if len(frames) == 0 {
			if state := c.closing.Load(); state != connOpen && c.pending.Load() == 0 {
				c.conn.Close()
				c.unregister(state == connEvicted)
				return
			}
			c.txPark.Idle()
			continue
		}
		c.txPark.Busy()
		vecs = c.writeFrames(frames, vecs)
		for i := range frames {
			if frames[i].buf != nil {
				frames[i].buf.Release()
			}
		}
		c.pending.Add(-int64(len(frames)))
	}
}

// writeFrames gathers frames into vecs and lands them with one vectored
// write, returning vecs for the next batch. net.Buffers.WriteTo
// consumes its receiver, so the write goes through a copy of the slice
// header: writing through vecs itself would cost it a batch's worth of
// capacity per call.
func (c *tcpConn) writeFrames(frames []tcpTxFrame, vecs net.Buffers) net.Buffers {
	vecs = vecs[:0]
	for i := range frames {
		vecs = append(vecs, frames[i].msg)
	}
	w := vecs
	c.writeMu.Lock()
	w.WriteTo(c.conn) //nolint:errcheck // client may have gone
	c.writeMu.Unlock()
	return vecs
}

// unregister removes a fully drained connection from the server's
// books.
func (c *tcpConn) unregister(evicted bool) {
	if evicted && !c.t.closed.Load() {
		c.t.connsEvicted.Add(1)
	}
	c.t.connMu.Lock()
	delete(c.t.conns, c)
	c.t.connMu.Unlock()
	c.t.connsOpen.Add(-1)
}
