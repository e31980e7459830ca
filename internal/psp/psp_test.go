package psp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/spin"
)

// echoHandler responds with the payload and spins for a per-type
// duration.
type echoHandler struct {
	serviceByType []time.Duration
}

func (h *echoHandler) Handle(typ int, payload []byte, resp []byte) (int, proto.Status) {
	if typ >= 0 && typ < len(h.serviceByType) {
		spin.For(h.serviceByType[typ])
	}
	n := copy(resp, payload)
	return n, proto.StatusOK
}

// typedPayload builds a payload whose first two bytes carry the type.
func typedPayload(typ int, body string) []byte {
	p := make([]byte, 2+len(body))
	binary.LittleEndian.PutUint16(p, uint16(typ))
	copy(p[2:], body)
	return p
}

func newEchoServer(t *testing.T, workers int, mode sched.Kind) *Server {
	t.Helper()
	spin.Calibrate(10 * time.Millisecond)
	cfg := darc.DefaultConfig(workers)
	cfg.MinWindowSamples = 64
	if workers < 2 {
		cfg.Spillway = 0
	}
	srv, err := NewServer(Config{
		Workers:    workers,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{serviceByType: []time.Duration{5 * time.Microsecond, 200 * time.Microsecond}},
		Policy:     sched.Spec{Kind: mode},
		DARC:       cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv
}

func TestConfigValidation(t *testing.T) {
	h := &echoHandler{}
	c := classify.Field{Offset: 0, Types: 1}
	cases := []Config{
		{Workers: 0, Classifier: c, Handler: h},
		{Workers: 1, Handler: h},
		{Workers: 1, Classifier: c},
		{Workers: 1, Classifier: classify.Field{Offset: 0, Types: 0}, Handler: h},
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCallRoundTrip(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	resp, err := srv.Call(typedPayload(0, "hello"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusOK {
		t.Fatalf("status %v", resp.Status)
	}
	if string(resp.Payload[2:]) != "hello" {
		t.Fatalf("payload %q", resp.Payload)
	}
	if resp.Type != 0 {
		t.Fatalf("classified as %d", resp.Type)
	}
	if resp.Sojourn <= 0 {
		t.Fatal("no sojourn measured")
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	const n = 500
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			typ := i % 2
			resp, err := srv.Call(typedPayload(typ, fmt.Sprintf("m%d", i)))
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != proto.StatusOK || resp.Type != typ {
				errs <- fmt.Errorf("resp %+v", resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.StatsSnapshot()
	if st.Enqueued < n {
		t.Fatalf("enqueued %d, want >= %d", st.Enqueued, n)
	}
}

func TestUnknownTypeStillServed(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	// Type 9 is beyond the classifier's 2 types -> Unknown queue.
	resp, err := srv.Call(typedPayload(9, "mystery"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != classify.Unknown {
		t.Fatalf("type %d, want Unknown", resp.Type)
	}
	if resp.Status != proto.StatusOK {
		t.Fatalf("status %v", resp.Status)
	}
}

func TestShortPayloadIsUnknown(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	resp, err := srv.Call([]byte{0x01}) // too short for the field classifier
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != classify.Unknown {
		t.Fatalf("type %d", resp.Type)
	}
}

func TestDARCInstallsReservationUnderLoad(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	var wg sync.WaitGroup
	for i := 0; i < 300; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srv.Call(typedPayload(i%2, "x")) //nolint:errcheck
		}(i)
		if i%50 == 49 {
			wg.Wait()
		}
	}
	wg.Wait()
	if srv.Controller().Reservation() == nil {
		t.Fatal("no reservation after 300 completions with MinWindowSamples=64")
	}
	st := srv.StatsSnapshot()
	if st.Updates == 0 {
		t.Fatal("no reservation updates counted")
	}
}

func TestCFCFSMode(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindCFCFS)
	for i := 0; i < 100; i++ {
		resp, err := srv.Call(typedPayload(i%2, "y"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != proto.StatusOK {
			t.Fatalf("status %v", resp.Status)
		}
	}
	if srv.Controller().Updates() != 0 {
		t.Fatal("c-FCFS mode performed reservation updates")
	}
}

func TestStopAnswersQueuedRequests(t *testing.T) {
	spin.Calibrate(10 * time.Millisecond)
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			time.Sleep(10 * time.Millisecond) // slow worker
			return 0, proto.StatusOK
		}),
		DARC: func() darc.Config {
			c := darc.DefaultConfig(1)
			c.Spillway = 0
			return c
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	// Fill the worker and queue a few more.
	chans := make([]<-chan Response, 0, 5)
	for i := 0; i < 5; i++ {
		ch, err := srv.Submit(typedPayload(0, "z"))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	time.Sleep(5 * time.Millisecond)
	srv.Stop()
	okCount, dropCount := 0, 0
	for _, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Status == proto.StatusOK {
				okCount++
			} else {
				dropCount++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request left unanswered after Stop")
		}
	}
	if okCount == 0 && dropCount == 0 {
		t.Fatal("no responses at all")
	}
	if okCount+dropCount != 5 {
		t.Fatalf("responses %d, want 5", okCount+dropCount)
	}
	// Submitting after stop fails.
	if _, err := srv.Submit(typedPayload(0, "late")); err == nil {
		t.Fatal("submit after stop accepted")
	}
}

func TestHandlerStatusPropagates(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return 0, proto.StatusError
		}),
		DARC: func() darc.Config {
			c := darc.DefaultConfig(1)
			c.Spillway = 0
			return c
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	resp, err := srv.Call(typedPayload(0, "boom"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusError {
		t.Fatalf("status %v", resp.Status)
	}
}

func TestStatsSnapshot(t *testing.T) {
	srv := newEchoServer(t, 2, sched.KindDARC)
	for i := 0; i < 50; i++ {
		srv.Call(typedPayload(0, "s")) //nolint:errcheck
	}
	st := srv.StatsSnapshot()
	if st.Enqueued < 50 || st.Dispatched < 50 {
		t.Fatalf("stats %+v", st)
	}
	if len(st.Summaries) != 3 { // 2 types + aggregate
		t.Fatalf("summaries %d", len(st.Summaries))
	}
	if st.Summaries[0].Completed == 0 {
		t.Fatal("type 0 has no completions in summary")
	}
	if sd := srv.TypeSlowdown(0, 0.5); sd < 1 {
		t.Fatalf("median slowdown %g < 1", sd)
	}
}

func TestPinThreadsOption(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return 0, proto.StatusOK
		}),
		PinThreads: true,
		DARC: func() darc.Config {
			c := darc.DefaultConfig(1)
			c.Spillway = 0
			return c
		}(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	if _, err := srv.Call(typedPayload(0, "pinned")); err != nil {
		t.Fatal(err)
	}
}
