// Package proto defines the UDP wire format the live runtime's client
// and server speak: a fixed 16-byte header followed by an opaque
// application payload. The request type lives in the header, matching
// the paper's evaluation protocol ("transaction ID, query ID, and
// synthetic request types are located in the requests' header").
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Magic identifies Perséphone datagrams.
const Magic uint16 = 0x9590

// HeaderSize is the fixed header length in bytes.
const HeaderSize = 16

// Kind discriminates requests from responses.
type Kind uint8

const (
	// KindRequest is a client-to-server message.
	KindRequest Kind = 1
	// KindResponse is a server-to-client message.
	KindResponse Kind = 2
)

// Status reports the server-side outcome in responses. In requests
// the same header byte is repurposed as the retry attempt number: 0
// for the first transmission, n for the n-th retransmission. Servers
// use it to count client retries; it does not affect scheduling.
type Status uint8

const (
	// StatusOK marks a successfully processed request.
	StatusOK Status = 0
	// StatusDropped marks a request shed by flow control.
	StatusDropped Status = 1
	// StatusError marks an application processing failure.
	StatusError Status = 2
	// StatusOverloaded marks a request shed by admission control: the
	// request's queue delay exceeded its type's admission budget, or
	// the dispatcher trimmed queues in reverse-reservation order under
	// sustained overload. Responses with this status carry no payload
	// and usually a retry-after trailer telling the client how long to
	// back off before retrying.
	StatusOverloaded Status = 3
)

// Header is the fixed message prefix.
//
// Layout (little endian):
//
//	0:2   magic
//	2:3   kind
//	3:4   status
//	4:6   type id
//	6:8   payload length
//	8:16  request id
type Header struct {
	Kind       Kind
	Status     Status
	TypeID     uint16
	PayloadLen uint16
	RequestID  uint64
}

// Errors returned by Decode.
var (
	ErrTooShort = errors.New("proto: datagram shorter than header")
	ErrBadMagic = errors.New("proto: bad magic")
)

// EncodeHeader writes h into buf, which must hold at least HeaderSize
// bytes, and returns HeaderSize.
func EncodeHeader(buf []byte, h Header) int {
	_ = buf[HeaderSize-1]
	binary.LittleEndian.PutUint16(buf[0:2], Magic)
	buf[2] = byte(h.Kind)
	buf[3] = byte(h.Status)
	binary.LittleEndian.PutUint16(buf[4:6], h.TypeID)
	binary.LittleEndian.PutUint16(buf[6:8], h.PayloadLen)
	binary.LittleEndian.PutUint64(buf[8:16], h.RequestID)
	return HeaderSize
}

// DecodeHeader parses the header of a datagram and returns it along
// with the payload slice (aliasing buf).
func DecodeHeader(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderSize {
		return Header{}, nil, ErrTooShort
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return Header{}, nil, ErrBadMagic
	}
	h := Header{
		Kind:       Kind(buf[2]),
		Status:     Status(buf[3]),
		TypeID:     binary.LittleEndian.Uint16(buf[4:6]),
		PayloadLen: binary.LittleEndian.Uint16(buf[6:8]),
		RequestID:  binary.LittleEndian.Uint64(buf[8:16]),
	}
	payload := buf[HeaderSize:]
	if int(h.PayloadLen) > len(payload) {
		return Header{}, nil, fmt.Errorf("proto: payload length %d exceeds datagram remainder %d", h.PayloadLen, len(payload))
	}
	return h, payload[:h.PayloadLen], nil
}

// AppendMessage encodes a full message (header + payload) into dst,
// returning the extended slice.
func AppendMessage(dst []byte, h Header, payload []byte) []byte {
	if len(payload) > 0xFFFF {
		panic("proto: payload exceeds 64KiB")
	}
	h.PayloadLen = uint16(len(payload))
	var hdr [HeaderSize]byte
	EncodeHeader(hdr[:], h)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ResponseOverhead is the fixed per-response framing cost: the header
// plus the timing trailer. A buffer of cap >= ResponseOverhead+len(payload)
// holds a full response message; the live runtime sizes its pooled
// network buffers with this so the ingress buffer can be reused for
// the egress frame without reallocating.
const ResponseOverhead = HeaderSize + TimingSize

// AppendResponse encodes a complete response message — header,
// payload, timing trailer — into dst, returning the extended slice.
// It is the one egress framing path shared by the UDP and TCP
// transports.
func AppendResponse(dst []byte, h Header, payload []byte, t Timing) []byte {
	h.Kind = KindResponse
	dst = AppendMessage(dst, h, payload)
	return AppendTiming(dst, t)
}

// TimingMagic guards the optional timing trailer servers append after
// the response payload.
const TimingMagic uint16 = 0x7454

// TimingSize is the trailer length: magic + queue_ns + service_ns.
const TimingSize = 18

// Timing is the server-side lifecycle decomposition a response can
// carry back to the client: how long the request queued before a
// worker picked it up, and how long the handler ran. The trailer sits
// after the payload inside the same datagram/frame, so clients that
// decode only Header+payload (the PayloadLen bytes) remain compatible
// and simply never see it.
type Timing struct {
	// Queue is ingress-to-worker-start queueing delay.
	Queue time.Duration
	// Service is the handler execution time.
	Service time.Duration
}

// AppendTiming appends the timing trailer to an encoded message.
func AppendTiming(dst []byte, t Timing) []byte {
	var buf [TimingSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], TimingMagic)
	binary.LittleEndian.PutUint64(buf[2:10], uint64(t.Queue))
	binary.LittleEndian.PutUint64(buf[10:18], uint64(t.Service))
	return append(dst, buf[:]...)
}

// RetryAfterMagic guards the optional retry-after trailer admission
// NACKs (StatusOverloaded responses) carry.
const RetryAfterMagic uint16 = 0x7252

// RetryAfterSize is the trailer length: magic + delay_ns.
const RetryAfterSize = 10

// AppendRetryAfter appends the retry-after trailer to an encoded
// message. In the canonical response layout it sits after the timing
// trailer and before any correlation trailer.
func AppendRetryAfter(dst []byte, d time.Duration) []byte {
	var buf [RetryAfterSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], RetryAfterMagic)
	binary.LittleEndian.PutUint64(buf[2:10], uint64(d))
	return append(dst, buf[:]...)
}

// DecodeRetryAfter extracts the retry-after trailer from a full
// message whose decoded header is h. A timing trailer, if present, is
// skipped first. ok is false when no retry-after trailer is present.
func DecodeRetryAfter(buf []byte, h Header) (time.Duration, bool) {
	off := HeaderSize + int(h.PayloadLen)
	if len(buf) >= off+TimingSize &&
		binary.LittleEndian.Uint16(buf[off:off+2]) == TimingMagic {
		off += TimingSize
	}
	if len(buf) < off+RetryAfterSize {
		return 0, false
	}
	tail := buf[off:]
	if binary.LittleEndian.Uint16(tail[0:2]) != RetryAfterMagic {
		return 0, false
	}
	return time.Duration(binary.LittleEndian.Uint64(tail[2:10])), true
}

// CorrelationMagic guards the optional correlation trailer the
// fan-out frontend appends after the payload.
const CorrelationMagic uint16 = 0x7146

// CorrelationSize is the trailer length: magic + query id + shard +
// attempt.
const CorrelationSize = 12

// Correlation is the fan-out frontend's query-correlation trailer. On
// frontend→backend sub-requests it names the query, the shard slot
// within the query, and the transmission attempt (0 = primary, 1 =
// hedge); the backend's response encoder echoes it verbatim on the reply
// so the frontend can correlate even when its pending entry is gone.
// On frontend→client responses the same trailer summarises the query:
// Shard carries the fan-out degree and Attempt the number of hedged
// sub-requests. Like the timing trailer it sits after the payload, so
// clients that decode only Header+payload never see it.
type Correlation struct {
	// QueryID is the frontend-assigned query identifier.
	QueryID uint64
	// Shard is the slot index within the query (requests) or the
	// fan-out degree (client-facing responses).
	Shard uint8
	// Attempt is 0 for a primary sub-request, 1 for a hedge
	// (requests), or the query's hedge count (client-facing responses).
	Attempt uint8
}

// AppendCorrelation appends the correlation trailer to an encoded
// message.
func AppendCorrelation(dst []byte, c Correlation) []byte {
	var buf [CorrelationSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], CorrelationMagic)
	binary.LittleEndian.PutUint64(buf[2:10], c.QueryID)
	buf[10] = c.Shard
	buf[11] = c.Attempt
	return append(dst, buf[:]...)
}

// DecodeCorrelation extracts the correlation trailer from a full
// message whose decoded header is h. Timing and retry-after trailers,
// if present, are skipped first (responses carry timing, then
// retry-after, then correlation). ok is false when no correlation
// trailer is present.
func DecodeCorrelation(buf []byte, h Header) (Correlation, bool) {
	off := HeaderSize + int(h.PayloadLen)
	if len(buf) >= off+TimingSize &&
		binary.LittleEndian.Uint16(buf[off:off+2]) == TimingMagic {
		off += TimingSize
	}
	if len(buf) >= off+RetryAfterSize &&
		binary.LittleEndian.Uint16(buf[off:off+2]) == RetryAfterMagic {
		off += RetryAfterSize
	}
	if len(buf) < off+CorrelationSize {
		return Correlation{}, false
	}
	tail := buf[off:]
	if binary.LittleEndian.Uint16(tail[0:2]) != CorrelationMagic {
		return Correlation{}, false
	}
	return Correlation{
		QueryID: binary.LittleEndian.Uint64(tail[2:10]),
		Shard:   tail[10],
		Attempt: tail[11],
	}, true
}

// DecodeTiming extracts the timing trailer from a full message whose
// decoded header is h. ok is false when no trailer is present.
func DecodeTiming(buf []byte, h Header) (Timing, bool) {
	off := HeaderSize + int(h.PayloadLen)
	if len(buf) < off+TimingSize {
		return Timing{}, false
	}
	tail := buf[off:]
	if binary.LittleEndian.Uint16(tail[0:2]) != TimingMagic {
		return Timing{}, false
	}
	return Timing{
		Queue:   time.Duration(binary.LittleEndian.Uint64(tail[2:10])),
		Service: time.Duration(binary.LittleEndian.Uint64(tail[10:18])),
	}, true
}
