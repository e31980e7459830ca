package loadgen

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/rng"
	"repro/internal/workload"
)

func echoServer(t *testing.T) *psp.Server {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv
}

func testMix() workload.Mix {
	return workload.TwoType("short", time.Microsecond, 0.8, "long", 10*time.Microsecond)
}

func TestConfigValidation(t *testing.T) {
	srv := echoServer(t)
	bad := []Config{
		{Mix: testMix(), Rate: 0, Duration: time.Second},
		{Mix: testMix(), Rate: 100, Duration: 0},
		{Mix: workload.Mix{}, Rate: 100, Duration: time.Second},
	}
	for i, cfg := range bad {
		if _, err := RunInProcess(srv, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConfigRetryValidation(t *testing.T) {
	srv := echoServer(t)
	bad := []Config{
		{Mix: testMix(), Rate: 100, Duration: time.Millisecond, RequestTimeout: -time.Second},
		{Mix: testMix(), Rate: 100, Duration: time.Millisecond, MaxRetries: -1},
		{Mix: testMix(), Rate: 100, Duration: time.Millisecond, RetryBackoff: -time.Millisecond},
		{Mix: testMix(), Rate: 100, Duration: time.Millisecond, RetryBackoffMax: -time.Millisecond},
		// Retries without a per-request timeout can never fire.
		{Mix: testMix(), Rate: 100, Duration: time.Millisecond, MaxRetries: 3},
	}
	for i, cfg := range bad {
		if _, err := RunInProcess(srv, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBackoffFor(t *testing.T) {
	cfg := Config{RetryBackoff: time.Millisecond, RetryBackoffMax: 8 * time.Millisecond}
	// Zero jitter gives the bottom of the window: backoff/2, doubling
	// per attempt until the cap.
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 500 * time.Microsecond},
		{2, time.Millisecond},
		{3, 2 * time.Millisecond},
		{4, 4 * time.Millisecond}, // 8ms backoff, capped
		{9, 4 * time.Millisecond}, // still capped
	} {
		if got := cfg.backoffFor(tc.attempt, 0); got != tc.want {
			t.Errorf("attempt %d jitter 0: %v, want %v", tc.attempt, got, tc.want)
		}
	}
	// Jitter spans [b/2, b).
	if got := cfg.backoffFor(1, 0.999); got < 500*time.Microsecond || got >= time.Millisecond {
		t.Errorf("jittered backoff %v outside [0.5ms, 1ms)", got)
	}
	r := rng.New(99)
	for i := 0; i < 1000; i++ {
		got := cfg.backoffFor(3, r.Float64())
		if got < 2*time.Millisecond || got >= 4*time.Millisecond {
			t.Fatalf("attempt 3 backoff %v outside [2ms, 4ms)", got)
		}
	}
}

func TestRunInProcess(t *testing.T) {
	srv := echoServer(t)
	res, err := RunInProcess(srv, Config{
		Mix:      testMix(),
		Rate:     2000,
		Duration: 300 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received < res.Sent*8/10 {
		t.Fatalf("received %d of %d", res.Received, res.Sent)
	}
	if res.Overall.Count() != res.Received {
		t.Fatalf("histogram count %d vs received %d", res.Overall.Count(), res.Received)
	}
	if res.Late.Count() != res.Sent {
		t.Fatalf("lateness samples %d vs sent %d", res.Late.Count(), res.Sent)
	}
	// Rough open-loop pacing: ~600 requests at 2k rps over 300ms.
	if res.Sent < 300 || res.Sent > 1200 {
		t.Fatalf("sent %d, want ~600", res.Sent)
	}
	if res.AchievedRate() <= 0 {
		t.Fatal("zero achieved rate")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestTypeMixRespected(t *testing.T) {
	srv := echoServer(t)
	res, err := RunInProcess(srv, Config{
		Mix:      testMix(), // 80% type 0
		Rate:     3000,
		Duration: 300 * time.Millisecond,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	short := res.Latency[0].Count()
	long := res.Latency[1].Count()
	if short == 0 || long == 0 {
		t.Fatalf("counts %d/%d", short, long)
	}
	frac := float64(short) / float64(short+long)
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("short fraction %g, want ~0.8", frac)
	}
}

func TestRunUDP(t *testing.T) {
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := psp.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	res, err := RunUDP(u.Addr().String(), Config{
		Mix:      testMix(),
		Rate:     2000,
		Duration: 300 * time.Millisecond,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received < res.Sent*7/10 {
		t.Fatalf("received %d of %d over loopback", res.Received, res.Sent)
	}
	if res.Overall.QuantileDuration(0.5) <= 0 {
		t.Fatal("no latency recorded")
	}
	if res.Late.Count() != res.Sent {
		t.Fatalf("lateness samples %d vs sent %d", res.Late.Count(), res.Sent)
	}
}

// faultyUDPEcho is an instant echo server over UDP with the given
// fault profile injected at ingress.
func faultyUDPEcho(t *testing.T, prof *faults.Profile) *psp.UDPServer {
	t.Helper()
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		DARC:   cfg,
		Faults: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := psp.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u
}

// TestRunUDPAllDropped is the never-answered-request accounting fix:
// when the network eats every datagram, each request must surface as
// an explicit timeout — not vanish from the stats — and the latency
// histograms must stay empty rather than absorb phantom samples.
func TestRunUDPAllDropped(t *testing.T) {
	u := faultyUDPEcho(t, &faults.Profile{Seed: 5, DropRate: 1})
	res, err := RunUDP(u.Addr().String(), Config{
		Mix:            testMix(),
		Rate:           500,
		Duration:       100 * time.Millisecond,
		Seed:           6,
		RequestTimeout: 30 * time.Millisecond,
		MaxRetries:     2,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Received != 0 {
		t.Fatalf("received %d with 100%% drop", res.Received)
	}
	if res.TimedOut != res.Sent {
		t.Fatalf("timed out %d of %d sent", res.TimedOut, res.Sent)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
	// Each request is retransmitted MaxRetries times before expiring.
	if want := res.Sent * 2; res.Retries != want {
		t.Fatalf("retries %d, want %d", res.Retries, want)
	}
	if res.Overall.Count() != 0 {
		t.Fatalf("histogram holds %d phantom samples", res.Overall.Count())
	}
}

// TestRunUDPRetriesRecover: with a 30% drop rate and five retries the
// odds a request dies are 0.3^6 ≈ 0.07%, so essentially every request
// must complete — and be counted exactly once.
func TestRunUDPRetriesRecover(t *testing.T) {
	u := faultyUDPEcho(t, &faults.Profile{Seed: 8, DropRate: 0.3})
	res, err := RunUDP(u.Addr().String(), Config{
		Mix:            testMix(),
		Rate:           600,
		Duration:       150 * time.Millisecond,
		Seed:           9,
		RequestTimeout: 25 * time.Millisecond,
		MaxRetries:     5,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Retries == 0 {
		t.Fatal("no retries under 30% drop")
	}
	if res.Received < res.Sent*95/100 {
		t.Fatalf("received %d of %d despite retries", res.Received, res.Sent)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
	if res.Overall.Count() != res.Received {
		t.Fatalf("histogram count %d vs received %d", res.Overall.Count(), res.Received)
	}
}

// TestInProcessRequestTimeout: a handler slower than the per-request
// timeout must yield all-timeouts with clean accounting.
func TestInProcessRequestTimeout(t *testing.T) {
	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 64
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			time.Sleep(100 * time.Millisecond)
			return copy(r, p), proto.StatusOK
		}),
		DARC: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	res, err := RunInProcess(srv, Config{
		Mix:            testMix(),
		Rate:           100,
		Duration:       50 * time.Millisecond,
		Seed:           10,
		RequestTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.TimedOut != res.Sent {
		t.Fatalf("timed out %d of %d sent", res.TimedOut, res.Sent)
	}
	if un := res.Unaccounted(); un != 0 {
		t.Fatalf("%d requests unaccounted for", un)
	}
}

func TestRunUDPBadAddress(t *testing.T) {
	if _, err := RunUDP("not-an-address:abc", Config{
		Mix: testMix(), Rate: 100, Duration: 10 * time.Millisecond,
	}); err == nil {
		t.Fatal("bad address accepted")
	}
}
