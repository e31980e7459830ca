package psp

// Liveness of the park/wake hand-off (spsc.Parker): there is no timed
// fallback behind a parked goroutine, so every operation that needs
// one to act has to wake it. Each test below first waits until every
// goroutine of an idle server is really blocked in Parker.Idle, then
// runs the operation against a deadline; a missing wake-up is a hang,
// and the failure carries a goroutine dump.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/reconfig"
)

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// parkedGoroutines counts goroutines blocked inside Parker.Idle.
func parkedGoroutines() int {
	n := 0
	for _, g := range strings.Split(allStacks(), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.Contains(g, "spsc.(*Parker).Idle") {
			n++
		}
	}
	return n
}

// waitParked blocks until exactly want goroutines are parked.
func waitParked(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedGoroutines() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want %d:\n%s", parkedGoroutines(), want, allStacks())
		}
		time.Sleep(time.Millisecond)
	}
}

// promptly runs f and fails, with every goroutine's stack, if it has
// not returned within two seconds.
func promptly(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return against a parked server:\n%s", what, allStacks())
	}
}

func newParkServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Config{
		Workers:    8,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestStopWhileParked(t *testing.T) {
	base := parkedGoroutines()
	srv := newParkServer(t)
	srv.Start()
	waitParked(t, base+9) // dispatcher + 8 workers
	promptly(t, "Stop", srv.Stop)
	waitParked(t, base)
}

func TestUDPCloseWhileParked(t *testing.T) {
	base := parkedGoroutines()
	u, err := ListenUDP("127.0.0.1:0", newParkServer(t))
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, base+9)
	promptly(t, "UDPServer.Close", func() { u.Close() })
	waitParked(t, base)
}

func TestTCPCloseWhileParked(t *testing.T) {
	base := parkedGoroutines()
	ts, err := ListenTCP("127.0.0.1:0", newParkServer(t))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTCP(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(typedPayload(0, "open")); err != nil {
		t.Fatal(err)
	}
	waitParked(t, base+10) // + the open connection's TX goroutine
	promptly(t, "TCPServer.Close", func() { ts.Close() })
	waitParked(t, base)
}

func TestReconfigureWhileParked(t *testing.T) {
	base := parkedGoroutines()
	srv := newParkServer(t)
	srv.Start()
	defer srv.Stop()
	two, eight := 2, 8
	parked := 9 // dispatcher + workers
	for _, step := range []struct {
		name   string
		spec   reconfig.Spec
		parked int // once the change has settled
	}{
		{"policy swap", reconfig.Spec{Policy: &reconfig.PolicyChange{Mode: "cfcfs"}}, 9},
		{"shrink", reconfig.Spec{Workers: &two}, 3},
		{"grow", reconfig.Spec{Workers: &eight}, 9},
	} {
		waitParked(t, base+parked)
		promptly(t, "Reconfigure ("+step.name+")", func() {
			if _, err := srv.Reconfigure(step.spec); err != nil {
				t.Errorf("%s: %v", step.name, err)
			}
		})
		parked = step.parked
	}
	// The regrown pool went back to sleep and still serves.
	waitParked(t, base+parked)
	promptly(t, "Call", func() {
		if resp, err := srv.Call(typedPayload(1, "after")); err != nil || resp.Status != proto.StatusOK {
			t.Errorf("call after reconfigurations: %v %v", resp.Status, err)
		}
	})
}
