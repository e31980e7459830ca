package loadgen

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/psp"
)

func TestRetryDelayHonorsHint(t *testing.T) {
	cfg := Config{RetryBackoff: time.Millisecond, RetryBackoffMax: 8 * time.Millisecond}
	// No hint: identical to the plain exponential backoff.
	if got, want := cfg.retryDelay(2, 0, 0), cfg.backoffFor(2, 0); got != want {
		t.Fatalf("no hint: %v, want %v", got, want)
	}
	// A hint below the backoff changes nothing.
	if got, want := cfg.retryDelay(3, 0, time.Millisecond), cfg.backoffFor(3, 0); got != want {
		t.Fatalf("small hint: %v, want %v", got, want)
	}
	// A hint above the backoff wins, and jitter stretches it upward so
	// backed-off clients desynchronize.
	if got := cfg.retryDelay(1, 0, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("big hint, zero jitter: %v, want 50ms", got)
	}
	got := cfg.retryDelay(1, 1, 50*time.Millisecond)
	if got < 50*time.Millisecond || got > 75*time.Millisecond {
		t.Fatalf("big hint, full jitter: %v outside [50ms, 75ms]", got)
	}
}

func TestRunConfigValidation(t *testing.T) {
	srv := echoServer(t)
	base := Config{Mix: testMix(), Rate: 100, Duration: 10 * time.Millisecond}
	bad := []RunConfig{
		{Config: base}, // no transport, no server
		{Config: base, Transport: "carrier-pigeon"},                           // unknown transport
		{Config: base, Transport: TransportInProcess},                         // inprocess without server
		{Config: base, Transport: TransportInProcess, Server: srv, Addr: "x"}, // inprocess with addr
		{Config: base, Transport: TransportUDP},                               // udp without addr
		{Config: base, Transport: TransportUDP, Addr: "h:1", Server: srv},     // udp with server
		{Config: base, Transport: TransportTCP},                               // tcp without addr
		{Config: base, Transport: TransportTCP, Addr: "h:1", Server: srv},     // tcp with server
	}
	for i, rc := range bad {
		if _, err := Run(rc); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunDispatchesInProcess(t *testing.T) {
	srv := echoServer(t)
	// Empty Transport with a Server defaults to in-process.
	res, err := Run(RunConfig{
		Config: Config{Mix: testMix(), Rate: 1000, Duration: 100 * time.Millisecond, Seed: 11},
		Server: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Received == 0 {
		t.Fatalf("sent %d received %d", res.Sent, res.Received)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

// sheddingServer builds a server whose admission budgets are 1ns, so
// every request is NACKed at enqueue with a retry-after hint.
func sheddingServer(t *testing.T) *psp.Server {
	t.Helper()
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC: cfg,
		Admission: &admission.Config{
			Budgets: []time.Duration{time.Nanosecond, time.Nanosecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestInProcessNACKBackoff: a server that sheds everything must yield
// all-dropped results with every NACK counted and the retry budget
// honored (each request is NACKed once per attempt).
func TestInProcessNACKBackoff(t *testing.T) {
	srv := sheddingServer(t)
	srv.Start()
	t.Cleanup(srv.Stop)
	res, err := Run(RunConfig{
		Config: Config{
			Mix:            testMix(),
			Rate:           400,
			Duration:       100 * time.Millisecond,
			Seed:           12,
			RequestTimeout: 100 * time.Millisecond,
			MaxRetries:     1,
			RetryBackoff:   time.Millisecond,
		},
		Server: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received != 0 {
		t.Fatalf("received %d from an always-shedding server", res.Received)
	}
	if res.Dropped != res.Sent {
		t.Fatalf("dropped %d of %d sent", res.Dropped, res.Sent)
	}
	if res.Retries != res.Sent {
		t.Fatalf("retries %d, want one per request (%d)", res.Retries, res.Sent)
	}
	// Initial attempt plus one retry, each NACKed.
	if want := 2 * res.Sent; res.Nacked != want {
		t.Fatalf("nacked %d, want %d", res.Nacked, want)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

// TestRunUDPNACKRearm: over UDP a NACK must re-arm the inflight record
// (so the retransmitter re-sends after the retry-after hint) instead of
// terminally dropping on first receipt, and the terminal NACK after the
// retry budget must count as Dropped, not TimedOut.
func TestRunUDPNACKRearm(t *testing.T) {
	srv := sheddingServer(t)
	u, err := psp.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })

	res, err := Run(RunConfig{
		Config: Config{
			Mix:            testMix(),
			Rate:           300,
			Duration:       100 * time.Millisecond,
			Seed:           13,
			RequestTimeout: 50 * time.Millisecond,
			MaxRetries:     2,
			RetryBackoff:   time.Millisecond,
		},
		Transport: TransportUDP,
		Addr:      u.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received != 0 {
		t.Fatalf("received %d from an always-shedding server", res.Received)
	}
	if res.Nacked == 0 {
		t.Fatal("no NACKs recorded")
	}
	// Loopback is reliable, so no request should die silently: every
	// outcome is a terminal NACK (Dropped), not a timeout.
	if res.Dropped != res.Sent || res.TimedOut != 0 {
		t.Fatalf("dropped %d timedout %d of %d sent", res.Dropped, res.TimedOut, res.Sent)
	}
	// Each request is retransmitted after each non-terminal NACK.
	if want := 2 * res.Sent; res.Retries != want {
		t.Fatalf("retries %d, want %d", res.Retries, want)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

// TestRunTCPNACK: the TCP path surfaces NACKs as psp.ErrOverloaded from
// the client; the generator must count them and retry with backoff
// rather than misclassify them as timeouts.
func TestRunTCPNACK(t *testing.T) {
	srv := sheddingServer(t)
	l, err := psp.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	res, err := Run(RunConfig{
		Config: Config{
			Mix:            testMix(),
			Rate:           300,
			Duration:       100 * time.Millisecond,
			Seed:           14,
			RequestTimeout: 200 * time.Millisecond,
			MaxRetries:     1,
			RetryBackoff:   time.Millisecond,
			Conns:          2,
			Pipeline:       16,
		},
		Transport: TransportTCP,
		Addr:      l.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received != 0 {
		t.Fatalf("received %d from an always-shedding server", res.Received)
	}
	if res.TimedOut != 0 {
		t.Fatalf("%d NACKs misclassified as timeouts", res.TimedOut)
	}
	if res.Dropped != res.Sent {
		t.Fatalf("dropped %d of %d sent", res.Dropped, res.Sent)
	}
	if want := 2 * res.Sent; res.Nacked != want {
		t.Fatalf("nacked %d, want %d", res.Nacked, want)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}
