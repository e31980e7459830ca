package loadgen

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/trace"
)

// replayPayloadLen is the wire size of the default replay payload:
// a 2-byte little-endian type header (classify.Field-compatible),
// 6 bytes of padding, and the service demand in nanoseconds as a
// little-endian uint64.
const replayPayloadLen = 16

// ReplayPayload encodes one trace record into the default replay
// payload. The type index lands at offset 0 as a little-endian uint16
// so the server's classify.Field{Offset: 0} classifier sees it; the
// service demand travels at offset 8 so a trace-aware handler can
// reproduce the recorded cost (see ReplayService).
func ReplayPayload(rec trace.Record) []byte {
	p := make([]byte, replayPayloadLen)
	binary.LittleEndian.PutUint16(p, uint16(rec.Type))
	binary.LittleEndian.PutUint64(p[8:], uint64(rec.Service))
	return p
}

// ReplayService decodes the service demand carried by a ReplayPayload.
// The second return is false when the payload is too short to carry
// one.
func ReplayService(payload []byte) (time.Duration, bool) {
	if len(payload) < replayPayloadLen {
		return 0, false
	}
	return time.Duration(binary.LittleEndian.Uint64(payload[8:])), true
}

// ReplayUDP replays a trace against a UDP Perséphone server: every
// record is sent at its recorded offset from the replay's start (the
// pacer's due times are absolute, so scheduling jitter does not
// accumulate) with ReplayPayload as the wire payload and its trace
// position as the request ID. It is RunUDP's session with the trace as
// the schedule and no per-request timeout or retransmission — a replay
// must offer the exact recorded arrival sequence, once — so every
// request's outcome is a response, a drop status, or a final-drain
// timeout.
//
// serverAddr accepts the same comma-separated shard list as RunUDP.
// cfg.Timeout bounds the final drain (default 2s); all other Config
// knobs are ignored.
func ReplayUDP(serverAddr string, tr *trace.Trace, cfg Config) (*Result, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("loadgen: empty replay trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	cfg = Config{Timeout: cfg.Timeout}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	i := 0
	next := func() (arrival, bool) {
		if i == len(tr.Records) {
			return arrival{}, false
		}
		rec := tr.Records[i]
		i++
		return arrival{id: uint64(i), due: rec.Offset, typ: rec.Type, payload: ReplayPayload(rec)}, true
	}
	// A replay never retransmits, so its ledger draws no jitter.
	return runSession(serverAddr, &cfg, next, newLedger(tr.NumTypes(), nil))
}
