//go:build unix

package persephone_test

import (
	"syscall"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/proto"
)

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleServerBurnsNoCPU holds the cost of having nothing to do: an
// idle 8-worker UDP listener's dispatcher, workers and net worker are
// all parked, so the whole process uses a few hundred microseconds of
// CPU per second. The sleep-polling loops this replaced used 91 ms, and
// the bound is far enough from both to read the same on a busy host.
func TestIdleServerBurnsNoCPU(t *testing.T) {
	l, err := persephone.Listen("udp", "127.0.0.1:0", persephone.LiveConfig{
		Workers:    8,
		Classifier: persephone.FieldClassifier(0, 2),
		Handler: persephone.HandlerFunc(func(_ int, p, resp []byte) (int, proto.Status) {
			return copy(resp, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Server().Call([]byte{0, 0}); err != nil { // every goroutine has run once
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // start-up work, and the call's, is over
	const interval = time.Second
	before := cpuTime(t)
	time.Sleep(interval)
	if burn := cpuTime(t) - before; burn > 10*time.Millisecond {
		t.Fatalf("idle server used %v of CPU in %v, want under 10ms", burn, interval)
	} else {
		t.Logf("idle server used %v of CPU in %v", burn, interval)
	}
}
