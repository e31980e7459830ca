package psp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/proto"
)

// FrameScanner incrementally splits a length-prefixed byte stream into
// proto frames. Push accepts arbitrary chunk boundaries (a frame may
// arrive split across many reads, or many frames in one read) and
// emits each complete frame exactly once, in order; emitted slices are
// only valid for the duration of the callback. It is the one stream
// decoder shared by the TCP client, the frontend's TCP receiver, and
// the frame fuzz battery.
type FrameScanner struct {
	buf []byte // unconsumed carry-over bytes
}

// errFrameLength marks a stream with an out-of-range length prefix;
// the connection cannot be resynchronized after it.
var errFrameLength = errors.New("psp: tcp frame length out of range")

// Push feeds one chunk and invokes emit for every completed frame.
// A non-nil error (a bad length prefix, or an error returned by emit)
// poisons the stream: the caller must drop the connection.
func (s *FrameScanner) Push(chunk []byte, emit func(frame []byte) error) error {
	data := chunk
	if len(s.buf) > 0 {
		s.buf = append(s.buf, chunk...)
		data = s.buf
	}
	consumed := 0
	for {
		rest := data[consumed:]
		if len(rest) < tcpLenPrefixSize {
			break
		}
		frameLen := binary.LittleEndian.Uint32(rest)
		if frameLen < proto.HeaderSize || frameLen > maxTCPFrame {
			s.buf = s.buf[:0]
			return errFrameLength
		}
		if len(rest) < tcpLenPrefixSize+int(frameLen) {
			break
		}
		if err := emit(rest[tcpLenPrefixSize : tcpLenPrefixSize+int(frameLen)]); err != nil {
			s.buf = s.buf[:0]
			return err
		}
		consumed += tcpLenPrefixSize + int(frameLen)
	}
	// Carry the partial tail over to the next Push, compacted to the
	// front so the buffer never grows past one frame.
	tail := data[consumed:]
	if len(s.buf) > 0 {
		n := copy(s.buf[:cap(s.buf)], tail)
		s.buf = s.buf[:n]
	} else if len(tail) > 0 {
		s.buf = append(s.buf, tail...)
	}
	return nil
}

// appendRequestFrame encodes one length-prefixed request frame.
func appendRequestFrame(dst []byte, id uint64, attempt uint8, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = proto.AppendMessage(dst, proto.Header{
		Kind:      proto.KindRequest,
		Status:    proto.Status(attempt),
		RequestID: id,
	}, payload)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-tcpLenPrefixSize))
	return dst
}

// Errors returned by TCPClient.Call.
var (
	// ErrClientClosed means the connection is gone (Close was called,
	// the server hung up, or the stream broke).
	ErrClientClosed = errors.New("psp: tcp client closed")
	// ErrCallTimeout means the per-call deadline elapsed; the pending
	// entry has been swept.
	//
	// Deprecated: ErrCallTimeout is the same error value as
	// ErrDeadlineExceeded; match against that instead.
	ErrCallTimeout = ErrDeadlineExceeded
)

// TCPClient is a pipelined client for the TCP transport: any number of
// goroutines may Call concurrently over one connection, each call gets
// its own request ID, and a single read loop routes responses back by
// ID as the server completes them — in any order.
type TCPClient struct {
	conn net.Conn

	// Timeout bounds each Call from write to response; 0 waits
	// forever (until the connection dies). Set it before issuing
	// calls.
	Timeout time.Duration

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan Response
	closed  bool
}

// DialTCP connects to a TCP transport server.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{conn: conn, pending: make(map[uint64]chan Response)}
	go c.readLoop()
	return c, nil
}

// Call sends one request and waits for its response. Safe for
// concurrent use; calls pipeline on the shared connection. When
// Timeout is set and elapses, the pending entry is swept and
// ErrCallTimeout returned (the response, if it arrives later, is
// discarded by the read loop).
func (c *TCPClient) Call(payload []byte) (Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClientClosed
	}
	c.next++
	id := c.next
	ch := make(chan Response, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	msg := appendRequestFrame(make([]byte, 0, tcpLenPrefixSize+proto.HeaderSize+len(payload)), id, 0, payload)
	c.wmu.Lock()
	_, err := c.conn.Write(msg)
	c.wmu.Unlock()
	if err != nil {
		// A failed write is a broken stream: the connection is gone.
		c.sweep(id)
		return Response{}, fmt.Errorf("psp: tcp call write: %w: %w", ErrClientClosed, err)
	}

	var timeout <-chan time.Time
	if c.Timeout > 0 {
		timer := time.NewTimer(c.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			// The read loop died (connection closed) before our
			// response arrived; every pending entry was swept.
			return Response{}, ErrClientClosed
		}
		return resp, respErr(resp)
	case <-timeout:
		c.sweep(id)
		// The response may have raced the sweep; prefer it.
		select {
		case resp, ok := <-ch:
			if ok {
				return resp, respErr(resp)
			}
		default:
		}
		return Response{}, ErrDeadlineExceeded
	}
}

// respErr maps an admission NACK to its sentinel; the Response is
// still returned so callers see the RetryAfter hint.
func respErr(resp Response) error {
	if resp.Status == proto.StatusOverloaded {
		return ErrOverloaded
	}
	return nil
}

// sweep removes one pending entry (timeout or write failure), so
// abandoned calls cannot leak map entries.
func (c *TCPClient) sweep(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop routes response frames to pending calls. On any stream
// error it closes the connection and fails every pending call, so no
// caller blocks forever on a dead connection.
func (c *TCPClient) readLoop() {
	rd := bufio.NewReaderSize(c.conn, 1<<16)
	var sc FrameScanner
	chunk := make([]byte, 32*1024)
	for {
		n, err := rd.Read(chunk)
		if n > 0 {
			if perr := sc.Push(chunk[:n], c.deliver); perr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	c.conn.Close()
	c.mu.Lock()
	c.closed = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// deliver routes one decoded response frame to its waiting call.
func (c *TCPClient) deliver(frame []byte) error {
	hdr, payload, err := proto.DecodeHeader(frame)
	if err != nil || hdr.Kind != proto.KindResponse {
		return nil // not ours to interpret; skip the frame
	}
	c.mu.Lock()
	ch, ok := c.pending[hdr.RequestID]
	if ok {
		delete(c.pending, hdr.RequestID)
	}
	c.mu.Unlock()
	if !ok {
		return nil // swept by a timeout, or a stray ID
	}
	resp := Response{
		RequestID: hdr.RequestID,
		Type:      int(hdr.TypeID),
		Status:    hdr.Status,
		Payload:   append([]byte(nil), payload...),
	}
	if tm, ok := proto.DecodeTiming(frame, hdr); ok {
		resp.QueueDelay = tm.Queue
		resp.Service = tm.Service
	}
	if ra, ok := proto.DecodeRetryAfter(frame, hdr); ok {
		resp.RetryAfter = ra
	}
	ch <- resp
	return nil
}

// Close tears the connection down; in-flight calls fail with
// ErrClientClosed.
func (c *TCPClient) Close() error {
	return c.conn.Close() // the read loop observes EOF and sweeps
}
