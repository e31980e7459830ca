package loadgen

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
)

// TestLedgerSendErrors: a request whose first transmission fails moves
// Errors and never Sent, so it needs no outcome; every request that did
// go out gets exactly one, with close booking the unanswered as
// TimedOut and ignoring anything later.
func TestLedgerSendErrors(t *testing.T) {
	led := newLedger(2, nil)
	n := 0
	next := func() (arrival, bool) {
		n++
		return arrival{id: uint64(n), typ: n % 2}, n <= 6
	}
	start := pace(next, led, func(a arrival) (time.Time, error) {
		if a.id%3 == 0 {
			return time.Now(), errors.New("send failed")
		}
		return time.Now(), nil
	})
	led.received(1, time.Millisecond, false)
	led.dropped(0)
	res := led.close(start)
	if res.Sent != 4 || res.Errors != 2 || res.Late.Count() != res.Sent {
		t.Fatalf("sent %d errors %d lateness samples %d, want 4, 2, 4", res.Sent, res.Errors, res.Late.Count())
	}
	if res.TimedOut != 2 || res.TimedOutByType[0] != 1 || res.TimedOutByType[1] != 1 || res.Unaccounted() != 0 {
		t.Fatalf("timed out %d by type %v, unaccounted %d", res.TimedOut, res.TimedOutByType, res.Unaccounted())
	}
	led.received(1, time.Millisecond, false)
	led.failed()
	if res.Received != 1 || res.Errors != 2 || res.Overall.Count() != 1 {
		t.Fatalf("outcome booked after close: %v", res)
	}
}

// TestUDPSendErrorsCounted points RunUDP at a closed port: whatever the
// kernel does with the datagrams (loopback reports the port unreachable
// back to later writes), every scheduled arrival is either Sent or an
// Error, and every sent request has an outcome.
func TestUDPSendErrorsCounted(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	cfg := Config{Mix: testMix(), Rate: 1000, Duration: 100 * time.Millisecond, Seed: 15, Timeout: 50 * time.Millisecond}
	next, _, err := poisson(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals uint64
	for _, ok := next(); ok; _, ok = next() {
		arrivals++
	}
	res, err := RunUDP(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent+res.Errors != arrivals {
		t.Fatalf("sent %d + errors %d, want the schedule's %d arrivals", res.Sent, res.Errors, arrivals)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

// TestDrainBooksStragglers: a one-worker server with a 50ms handler
// cannot answer 200 req/s, so most requests are still unanswered when
// the 100ms drain gives up. They must be booked TimedOut, and the
// returned Result must be frozen: responses that land later neither
// change it nor race the caller's reads.
func TestDrainBooksStragglers(t *testing.T) {
	slow := func(t *testing.T) *psp.Server {
		srv, err := psp.NewServer(psp.Config{
			Workers:    1,
			Classifier: classify.Field{Offset: 0, Types: 2},
			Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
				time.Sleep(50 * time.Millisecond)
				return copy(r, p), proto.StatusOK
			}),
			Policy: sched.Spec{Kind: sched.KindCFCFS},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	cfg := Config{Mix: testMix(), Rate: 200, Duration: 200 * time.Millisecond, Seed: 1, Timeout: 100 * time.Millisecond}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) (*Result, error)
	}{
		{"inprocess", func(t *testing.T) (*Result, error) {
			srv := slow(t)
			srv.Start()
			t.Cleanup(srv.Stop)
			return RunInProcess(srv, cfg)
		}},
		{"tcp", func(t *testing.T) (*Result, error) {
			l, err := psp.ListenTCP("127.0.0.1:0", slow(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			return RunTCP(l.Addr().String(), cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(t)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v", res)
			if res.TimedOut == 0 {
				t.Fatalf("no stragglers timed out: %v", res)
			}
			if un := res.Unaccounted(); un != 0 {
				t.Fatalf("%d requests unaccounted for: %v", un, res)
			}
			snap := res.String()
			time.Sleep(150 * time.Millisecond) // the server answers more of its backlog
			if got := res.String(); got != snap || res.Overall.Count() != res.Received || res.Latency[0].Count()+res.Latency[1].Count() != res.Received {
				t.Fatalf("result changed after return: %s, was %s", got, snap)
			}
		})
	}
}
