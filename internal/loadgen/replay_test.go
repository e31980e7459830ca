package loadgen_test

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/loadgen"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/trace"
)

func TestReplayPayloadRoundTrip(t *testing.T) {
	rec := trace.Record{Type: 3, Service: 1234567 * time.Nanosecond}
	p := loadgen.ReplayPayload(rec)
	svc, ok := loadgen.ReplayService(p)
	if !ok || svc != rec.Service {
		t.Fatalf("decoded (%v, %v), want (%v, true)", svc, ok, rec.Service)
	}
	if _, ok := loadgen.ReplayService(p[:8]); ok {
		t.Fatal("short payload decoded as carrying a service demand")
	}
}

// TestReplayUDPConservation replays a small two-type trace against a
// live UDP server whose handler sleeps the payload-encoded service
// demand, and checks exact conservation: every record sent once, every
// outcome recorded, per-type counts matching the trace.
func TestReplayUDPConservation(t *testing.T) {
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			if svc, ok := loadgen.ReplayService(p); ok {
				time.Sleep(svc)
			}
			return copy(r, p), proto.StatusOK
		}),
		Mode: psp.ModeCFCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := psp.ListenUDPShards("127.0.0.1:0", srv, psp.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	tr := &trace.Trace{}
	perType := [2]uint64{}
	for i := 0; i < 200; i++ {
		typ := 0
		svc := 60 * time.Microsecond
		if i%5 == 4 {
			typ, svc = 1, 300*time.Microsecond
		}
		perType[typ]++
		tr.Records = append(tr.Records, trace.Record{
			Offset:  time.Duration(i) * 500 * time.Microsecond,
			Type:    typ,
			Service: svc,
		})
	}

	res, err := loadgen.ReplayUDP(u.Addrs()[0].String(), tr, loadgen.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 || res.Errors != 0 {
		t.Fatalf("sent %d errors %d, want 200 sent, 0 errors", res.Sent, res.Errors)
	}
	if res.Unaccounted() != 0 {
		t.Fatalf("unaccounted outcomes: %d (%s)", res.Unaccounted(), res.String())
	}
	if res.Received != 200 || res.Dropped != 0 || res.TimedOut != 0 {
		t.Fatalf("outcomes recv=%d drop=%d timeout=%d, want all 200 received", res.Received, res.Dropped, res.TimedOut)
	}
	if res.Late.Count() != res.Sent {
		t.Fatalf("lateness samples %d vs sent %d", res.Late.Count(), res.Sent)
	}
	var dropped, timedOut uint64
	for typ := range perType {
		dropped += res.DroppedByType[typ]
		timedOut += res.TimedOutByType[typ]
	}
	if dropped != res.Dropped || timedOut != res.TimedOut {
		t.Fatalf("per-type drops %d / timeouts %d, totals %d / %d", dropped, timedOut, res.Dropped, res.TimedOut)
	}
	for typ, want := range perType {
		if got := res.Latency[typ].Count(); got != want {
			t.Fatalf("type %d latency samples %d, want %d", typ, got, want)
		}
	}
}

func TestReplayUDPEmptyTrace(t *testing.T) {
	if _, err := loadgen.ReplayUDP("127.0.0.1:1", &trace.Trace{}, loadgen.Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestReplayUDPResolveError exercises the dial-error path.
func TestReplayUDPResolveError(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{{Type: 0, Service: time.Microsecond}}}
	if _, err := loadgen.ReplayUDP("not-an-addr", tr, loadgen.Config{}); err == nil {
		t.Fatal("bad address accepted")
	}
}
