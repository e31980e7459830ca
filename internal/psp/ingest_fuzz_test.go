package psp

// FuzzIngest drives the request path's one ingest step, which both
// transports' readers call, with arbitrary bytes, with and without a
// pooled buffer, under a chaos profile that drops and duplicates. It
// must never panic, and each input must end as exactly one of: a burst
// entry (plus at most one chaos duplicate), or one counted drop
// (malformed, in the lane's RxDrops, or eaten by the chaos layer). A
// pooled buffer goes with the request or back to the pool.
//
// Longer local runs: go test -run '^$' -fuzz FuzzIngest ./internal/psp

import (
	"bytes"
	"testing"

	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/spsc"
)

// fuzzLane is a lane that only books.
type fuzzLane struct{ ingressLedger }

func (*fuzzLane) send(*Request, Response)  {}
func (*fuzzLane) shed(*Request)            {}
func (l *fuzzLane) ledger() *ingressLedger { return &l.ingressLedger }

func FuzzIngest(f *testing.F) {
	req := func(h proto.Header, body string) []byte {
		h.Kind = proto.KindRequest
		return proto.AppendMessage(nil, h, typedPayload(1, body))
	}
	valid := req(proto.Header{RequestID: 7}, "seed")
	f.Add(valid, true, uint64(1))
	f.Add(valid, false, uint64(2))
	f.Add(req(proto.Header{RequestID: 8, Status: 1}, "retry"), true, uint64(3))
	f.Add(proto.AppendCorrelation(req(proto.Header{RequestID: 9}, "sub"),
		proto.Correlation{QueryID: 3, Shard: 2, Attempt: 1}), true, uint64(4))
	f.Add(proto.AppendResponse(nil, proto.Header{RequestID: 10}, []byte("resp"), proto.Timing{}), true, uint64(5))
	f.Add(valid[:len(valid)-3], false, uint64(6)) // truncated payload
	f.Add([]byte("garbage"), true, uint64(7))
	f.Add([]byte{}, false, uint64(8))

	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		f.Fatal(err)
	}
	pool := spsc.NewPool(1, tcpBufSize)

	f.Fuzz(func(t *testing.T, data []byte, pooled bool, seed uint64) {
		srv.inj = faults.New(faults.Profile{Seed: seed, DropRate: 0.25, DupRate: 0.25}, 1)
		l := &fuzzLane{}
		frame := data
		var buf *spsc.Buffer
		if pooled && len(data) <= tcpBufSize {
			buf = pool.Get()
			buf.Len = copy(buf.Data, data)
			frame = buf.Bytes()
		}
		batch := srv.ingest(nil, frame, buf, l, nil)

		chaos := srv.inj.Counts()
		drops := l.rxDrops.Load() + chaos.Drops
		hdr, payload, herr := proto.DecodeHeader(data)
		wellFormed := herr == nil && hdr.Kind == proto.KindRequest
		if l.rxDrops.Load() != 0 && wellFormed {
			t.Fatalf("well-formed request counted malformed")
		}
		switch len(batch) {
		case 0:
			if drops != 1 {
				t.Fatalf("no entry and %d drops (malformed %d, chaos %d), want 1", drops, l.rxDrops.Load(), chaos.Drops)
			}
			if pool.Outstanding() != 0 {
				t.Fatalf("dropped frame kept its pooled buffer")
			}
			return
		case 1, 2:
		default:
			t.Fatalf("%d entries from one frame", len(batch))
		}
		if drops != 0 || !wellFormed {
			t.Fatalf("entry from a frame also dropped (%d) or malformed (%v)", drops, herr)
		}
		if (len(batch) == 2) != (chaos.Dups == 1) {
			t.Fatalf("%d entries with %d chaos duplicates", len(batch), chaos.Dups)
		}
		r := batch[0]
		if r.buf != buf || r.out != lane(l) || r.wireID != hdr.RequestID || !bytes.Equal(r.payload, payload) {
			t.Fatalf("request does not carry its frame: %+v", r)
		}
		corr, hasCorr := proto.DecodeCorrelation(data, hdr)
		if r.corr != corr || r.hasCorr != hasCorr {
			t.Fatalf("correlation %+v/%v, frame has %+v/%v", r.corr, r.hasCorr, corr, hasCorr)
		}
		if buf == nil && len(payload) > 0 && &r.payload[0] == &frame[proto.HeaderSize] {
			t.Fatalf("request without a pooled buffer aliases transient scratch")
		}
		if len(batch) == 2 {
			dup := batch[1]
			if dup.buf != nil || dup.wireID != r.wireID || !bytes.Equal(dup.payload, payload) {
				t.Fatalf("chaos duplicate is not an independent copy: %+v", dup)
			}
			if len(payload) > 0 && &dup.payload[0] == &r.payload[0] {
				t.Fatalf("chaos duplicate shares the original's payload")
			}
		}
		if buf != nil {
			buf.Release()
		}
	})
}
