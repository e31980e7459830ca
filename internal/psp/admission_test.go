package psp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/proto"
	"repro/internal/sched"
)

// newAdmissionServer builds a stopped echo server with the given
// admission policy and per-type spin services (the transports' Listen
// helpers start it; in-process tests call Start themselves).
func newAdmissionServer(t *testing.T, workers int, adm *admission.Config, services []time.Duration) *Server {
	t.Helper()
	cfg := darc.DefaultConfig(workers)
	cfg.MinWindowSamples = 64
	if workers < 2 {
		cfg.Spillway = 0
	}
	srv, err := NewServer(Config{
		Workers:    workers,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{serviceByType: services},
		DARC:       cfg,
		Admission:  adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAdmissionShedConservation floods a single slow worker far past
// its admission budgets and asserts the exact per-type ledger
// identity: accepted == completed + shed_deadline + shed_overload,
// with nothing lost, and every submitter answered exactly once.
func TestAdmissionShedConservation(t *testing.T) {
	srv := newAdmissionServer(t, 1, &admission.Config{
		Budgets:       []time.Duration{time.Millisecond, time.Millisecond},
		OverloadDelay: 500 * time.Microsecond,
	}, []time.Duration{2 * time.Millisecond, 2 * time.Millisecond})
	srv.Start()
	t.Cleanup(srv.Stop)

	const n = 200
	var (
		wg        sync.WaitGroup
		oks       atomic.Uint64
		nacks     atomic.Uint64
		badRetry  atomic.Uint64
		badStatus atomic.Uint64
	)
	for i := 0; i < n; i++ {
		ch, err := srv.Submit(typedPayload(i%2, "flood"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := <-ch
			switch resp.Status {
			case proto.StatusOK:
				oks.Add(1)
			case proto.StatusOverloaded:
				nacks.Add(1)
				if resp.RetryAfter <= 0 {
					badRetry.Add(1)
				}
			default:
				badStatus.Add(1)
			}
		}()
	}
	wg.Wait()
	if badStatus.Load() != 0 {
		t.Fatalf("%d responses with unexpected status", badStatus.Load())
	}
	if badRetry.Load() != 0 {
		t.Fatalf("%d NACKs without a retry-after hint", badRetry.Load())
	}
	if nacks.Load() == 0 {
		t.Fatal("a 1ms budget against a 2ms-service flood shed nothing")
	}
	if oks.Load()+nacks.Load() != n {
		t.Fatalf("answered %d+%d of %d", oks.Load(), nacks.Load(), n)
	}

	// Every submitter has its answer; the dispatcher may still be
	// consuming the final worker completions. Wait for the ledger to
	// balance, then assert it is exact per type.
	deadline := time.Now().Add(5 * time.Second)
	var st admission.Stats
	for {
		st = srv.Admission().Snapshot()
		tot := st.Totals()
		if tot.Accepted == n && tot.Accepted == tot.Completed+tot.Shed() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger never balanced: %+v", tot)
		}
		time.Sleep(time.Millisecond)
	}
	for i, slot := range st.Slots {
		if slot.Accepted != slot.Completed+slot.ShedDeadline+slot.ShedOverload {
			t.Errorf("slot %d: accepted %d != completed %d + deadline %d + overload %d",
				i, slot.Accepted, slot.Completed, slot.ShedDeadline, slot.ShedOverload)
		}
		if slot.ShedLost != 0 {
			t.Errorf("slot %d: %d requests lost on a clean run", i, slot.ShedLost)
		}
	}
	if got := st.Totals().Completed; got != uint64(oks.Load()) {
		t.Errorf("ledger completed %d != OK responses %d", got, oks.Load())
	}
	if got := st.Totals().Shed(); got != uint64(nacks.Load()) {
		t.Errorf("ledger shed %d != NACK responses %d", got, nacks.Load())
	}
}

// egressFunc adapts a function into an egress, for tests that plant
// requests directly.
type egressFunc func(Response)

func (f egressFunc) send(_ *Request, resp Response) { f(resp) }

// TestAdmissionShedOrderReverseReservation drives shedOverloaded
// directly on an unstarted server (the dispatcher state is free to
// poke single-threaded) and asserts the trim order: the unknown
// spillway drains first, then the long type down to its backlog cap,
// then the short type — which keeps the deepest backlog.
func TestAdmissionShedOrderReverseReservation(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{},
		Admission: &admission.Config{
			Budgets:       []time.Duration{4 * time.Millisecond, 4 * time.Millisecond},
			OverloadDelay: time.Millisecond,
			EWMAAlpha:     0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Profile type 0 short (1ms), type 1 long (10ms): DispatchOrder
	// is [0, 1], so the reverse trim hits type 1 first. Backlog caps:
	// type 0 keeps 4ms/1ms = 4, type 1 keeps max(4ms/10ms, 1) = 1.
	srv.ctl.Observe(0, time.Millisecond)
	srv.ctl.Observe(1, 10*time.Millisecond)

	var order []int
	plant := func(q *sched.FIFO[*Request], typ, n int) {
		for i := 0; i < n; i++ {
			r := &Request{typ: typ, out: egressFunc(func(resp Response) {
				if resp.Status != proto.StatusOverloaded {
					t.Errorf("shed response status %v", resp.Status)
				}
				order = append(order, typ)
			})}
			if !q.Push(r) {
				t.Fatalf("plant type %d", typ)
			}
		}
	}
	plant(srv.core.Typed(0), 0, 10)
	plant(srv.core.Typed(1), 1, 10)
	plant(srv.core.Unknown(), classify.Unknown, 3)

	srv.adm.ObserveQueueDelay(10 * time.Millisecond) // EWMA 5ms > 1ms
	if !srv.adm.Overloaded() {
		t.Fatal("EWMA above threshold must flag overload")
	}
	if !srv.shedOverloaded() {
		t.Fatal("overload trim shed nothing")
	}

	if got := srv.core.Unknown().Len(); got != 0 {
		t.Errorf("unknown queue kept %d, want 0", got)
	}
	if got := srv.core.Typed(1).Len(); got != 1 {
		t.Errorf("long queue kept %d, want backlog cap 1", got)
	}
	if got := srv.core.Typed(0).Len(); got != 4 {
		t.Errorf("short queue kept %d, want backlog cap 4", got)
	}
	want := []int{
		classify.Unknown, classify.Unknown, classify.Unknown,
		1, 1, 1, 1, 1, 1, 1, 1, 1,
		0, 0, 0, 0, 0, 0,
	}
	if len(order) != len(want) {
		t.Fatalf("shed %d requests, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("shed order %v, want unknown, then long, then short (%v)", order, want)
		}
	}
	st := srv.adm.Snapshot()
	if st.Slots[1].ShedOverload != 9 || st.Slots[0].ShedOverload != 6 || st.Slots[2].ShedOverload != 3 {
		t.Errorf("overload shed counts: %+v", st.Slots)
	}
}

// TestUDPAdmissionNACKTrailer pins the UDP wire format of a shed: a
// StatusOverloaded header plus a decodable retry-after trailer.
func TestUDPAdmissionNACKTrailer(t *testing.T) {
	cfg := darc.DefaultConfig(1)
	cfg.MinWindowSamples = 64
	cfg.Spillway = 0
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{},
		DARC:       cfg,
		// A 1ns budget sheds every request at enqueue: classification
		// alone consumes it, so the NACK path is deterministic.
		Admission: &admission.Config{Budgets: []time.Duration{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	conn := udpClient(t, u.Addr())

	msg := proto.AppendMessage(nil, proto.Header{
		Kind:      proto.KindRequest,
		RequestID: 7,
	}, typedPayload(0, "shed me"))
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := proto.DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != proto.StatusOverloaded || h.RequestID != 7 {
		t.Fatalf("header %+v", h)
	}
	if len(body) != 0 {
		t.Fatalf("NACK carried payload %q", body)
	}
	ra, ok := proto.DecodeRetryAfter(buf[:n], h)
	if !ok {
		t.Fatal("NACK missing retry-after trailer")
	}
	if ra < admission.DefaultRetryAfterMin || ra > admission.DefaultRetryAfterMax {
		t.Fatalf("retry-after %v outside default clamp", ra)
	}
}

// TestTCPAdmissionNACKPipelining is the pipelined-desync regression:
// many concurrent calls share one connection while admission sheds a
// subset; a NACK frame must not desync RequestID matching, so every
// OK response must still carry its own call's payload, and the
// connection must stay usable afterwards.
func TestTCPAdmissionNACKPipelining(t *testing.T) {
	srv := newAdmissionServer(t, 1, &admission.Config{
		Budgets:       []time.Duration{2 * time.Millisecond, 2 * time.Millisecond},
		OverloadDelay: time.Millisecond,
	}, []time.Duration{time.Millisecond, time.Millisecond})
	tcp, err := ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	cli, err := DialTCP(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	const n = 128
	var (
		wg       sync.WaitGroup
		oks      atomic.Uint64
		nacks    atomic.Uint64
		failures atomic.Uint64
	)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := typedPayload(i%2, fmt.Sprintf("pipelined-%03d", i))
			resp, err := cli.Call(sent)
			switch {
			case errors.Is(err, ErrOverloaded):
				nacks.Add(1)
				if resp.Status != proto.StatusOverloaded {
					t.Errorf("call %d: ErrOverloaded with status %v", i, resp.Status)
				}
				if resp.RetryAfter <= 0 {
					t.Errorf("call %d: NACK without retry-after", i)
				}
			case err != nil:
				failures.Add(1)
				t.Errorf("call %d: %v", i, err)
			default:
				oks.Add(1)
				if string(resp.Payload) != string(sent) {
					t.Errorf("call %d: response payload %q does not match request %q — RequestID desync",
						i, resp.Payload, sent)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d calls failed outright", failures.Load())
	}
	if nacks.Load() == 0 {
		t.Fatal("128 pipelined 1ms calls against a 2ms budget shed nothing")
	}
	if oks.Load()+nacks.Load() != n {
		t.Fatalf("accounted %d+%d of %d", oks.Load(), nacks.Load(), n)
	}

	// The stream survived the interleaved NACK frames: sequential
	// low-rate calls all succeed with matched payloads.
	for i := 0; i < 10; i++ {
		sent := typedPayload(0, fmt.Sprintf("after-%d", i))
		resp, err := cli.Call(sent)
		if errors.Is(err, ErrOverloaded) {
			time.Sleep(resp.RetryAfter)
			continue
		}
		if err != nil {
			t.Fatalf("post-flood call %d: %v", i, err)
		}
		if string(resp.Payload) != string(sent) {
			t.Fatalf("post-flood call %d: payload %q != %q", i, resp.Payload, sent)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSentinelErrors pins the facade error contract at the runtime
// layer: stopped servers and admission sheds return matchable
// sentinels, and the deprecated ErrCallTimeout alias still matches.
func TestSentinelErrors(t *testing.T) {
	if !errors.Is(ErrCallTimeout, ErrDeadlineExceeded) {
		t.Fatal("ErrCallTimeout must alias ErrDeadlineExceeded")
	}
	srv := newEchoServer(t, 1, ModeCFCFS)
	srv.Stop()
	if _, err := srv.Submit(typedPayload(0, "late")); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("submit after stop: %v", err)
	}
}

// TestCallOverloadAndBackpressure exercises the Call convenience
// wrapper's two error paths: ingress backpressure surfaces
// ErrPoolExhausted from Submit, and an admission NACK comes back as a
// Response paired with ErrOverloaded.
func TestCallOverloadAndBackpressure(t *testing.T) {
	// A stopped server never drains its ingress ring, so filling it
	// deterministically trips the pool-exhausted path.
	idle := newAdmissionServer(t, 1, nil, []time.Duration{0, 0})
	var full error
	for i := 0; i < 20000; i++ {
		if _, err := idle.Submit(typedPayload(0, "fill")); err != nil {
			full = err
			break
		}
	}
	if !errors.Is(full, ErrPoolExhausted) {
		t.Fatalf("full ingress returned %v, want ErrPoolExhausted", full)
	}
	if _, err := idle.Call(typedPayload(0, "fill")); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Call on a full ingress returned %v, want ErrPoolExhausted", err)
	}
	idle.Stop()

	// A 1ms budget against a 2ms-service flood sheds; Call must pair
	// every NACK with ErrOverloaded and a retry-after hint.
	srv := newAdmissionServer(t, 1, &admission.Config{
		Budgets:       []time.Duration{time.Millisecond, time.Millisecond},
		OverloadDelay: 500 * time.Microsecond,
	}, []time.Duration{2 * time.Millisecond, 2 * time.Millisecond})
	srv.Start()
	t.Cleanup(srv.Stop)

	const n = 200
	var (
		wg      sync.WaitGroup
		oks     atomic.Uint64
		overs   atomic.Uint64
		badPair atomic.Uint64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Call(typedPayload(i%2, "call"))
			switch {
			case err == nil && resp.Status == proto.StatusOK:
				oks.Add(1)
			case errors.Is(err, ErrOverloaded):
				overs.Add(1)
				if resp.Status != proto.StatusOverloaded || resp.RetryAfter <= 0 {
					badPair.Add(1)
				}
			default:
				badPair.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if badPair.Load() != 0 {
		t.Fatalf("%d calls returned a mismatched response/error pair", badPair.Load())
	}
	if overs.Load() == 0 {
		t.Fatal("a 1ms budget against a 2ms-service flood shed nothing")
	}
	if oks.Load()+overs.Load() != n {
		t.Fatalf("answered %d+%d of %d", oks.Load(), overs.Load(), n)
	}
}
