package frontend

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/sched"
)

// sleepHandler echoes the payload after a per-type sleep (sleep, not
// spin, so a stalled single-worker backend serializes without burning
// the test host's CPU).
type sleepHandler struct {
	serviceByType []time.Duration
	extra         atomic.Int64 // added to every request, settable mid-test
}

func (h *sleepHandler) Handle(typ int, payload []byte, resp []byte) (int, proto.Status) {
	d := time.Duration(h.extra.Load())
	if typ >= 0 && typ < len(h.serviceByType) {
		d += h.serviceByType[typ]
	}
	if d > 0 {
		time.Sleep(d)
	}
	n := copy(resp, payload)
	return n, proto.StatusOK
}

// newBackend starts an in-process Perséphone backend and returns its
// UDP address.
func newBackend(t *testing.T, workers int, h psp.Handler, prof *faults.Profile) (*psp.Server, *psp.UDPServer) {
	t.Helper()
	srv, err := psp.NewServer(psp.Config{
		Workers:    workers,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    h,
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
		Faults:     prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ListenUDP starts the server; Stop is covered by us.Close.
	us, err := psp.ListenUDP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { us.Close() })
	return srv, us
}

// typedPayload builds a payload whose first two bytes carry the type.
func typedPayload(typ int, body string) []byte {
	p := make([]byte, 2+len(body))
	binary.LittleEndian.PutUint16(p, uint16(typ))
	copy(p[2:], body)
	return p
}

// queryClient is a blocking request/response client for the frontend.
type queryClient struct {
	conn *net.UDPConn
	buf  []byte
}

func newQueryClient(t *testing.T, fe *Frontend) *queryClient {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &queryClient{conn: conn, buf: make([]byte, 4096)}
}

// call sends one query and waits for its response, returning the
// header, payload, and correlation trailer.
func (c *queryClient) call(t *testing.T, reqID uint64, payload []byte, timeout time.Duration) (proto.Header, []byte, proto.Correlation, bool) {
	t.Helper()
	msg := proto.AppendMessage(nil, proto.Header{
		Kind: proto.KindRequest, TypeID: 0, RequestID: reqID,
	}, payload)
	if _, err := c.conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for {
		c.conn.SetReadDeadline(deadline) //nolint:errcheck
		n, err := c.conn.Read(c.buf)
		if err != nil {
			t.Fatalf("no response for query %d: %v", reqID, err)
		}
		hdr, pl, perr := proto.DecodeHeader(c.buf[:n])
		if perr != nil {
			t.Fatalf("bad response frame: %v", perr)
		}
		if hdr.RequestID != reqID {
			continue // stale response from an earlier query
		}
		corr, ok := proto.DecodeCorrelation(c.buf[:n], hdr)
		return hdr, pl, corr, ok
	}
}

// assertConservation checks the sub-request invariant on a closed (or
// quiescent) frontend.
func assertConservation(t *testing.T, st Stats) {
	t.Helper()
	if un := st.SubUnaccounted(); un != 0 {
		t.Fatalf("sub-request conservation violated (unaccounted=%d): %+v", un, st)
	}
}

func TestFrontendFanOutIntegration(t *testing.T) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackend(t, 2, h, nil)
	_, b1 := newBackend(t, 2, h, nil)

	fe, err := Listen("127.0.0.1:0", Config{
		Backends: []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	const queries = 50
	for i := uint64(1); i <= queries; i++ {
		hdr, pl, corr, ok := cl.call(t, i, typedPayload(0, "fanout"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v", i, hdr.Status)
		}
		if string(pl) != string(typedPayload(0, "fanout")) {
			t.Fatalf("query %d payload = %q", i, pl)
		}
		if !ok {
			t.Fatalf("query %d response missing correlation trailer", i)
		}
		if corr.Shard != 2 {
			t.Fatalf("query %d fan-out degree = %d, want 2", i, corr.Shard)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Queries != queries || st.QueriesOK != queries {
		t.Fatalf("queries=%d ok=%d, want %d/%d", st.Queries, st.QueriesOK, queries, queries)
	}
	if st.SubIssued != 2*queries || st.SubReplied != 2*queries {
		t.Fatalf("issued=%d replied=%d, want %d each", st.SubIssued, st.SubReplied, 2*queries)
	}
	if st.Strays != 0 {
		t.Fatalf("strays = %d", st.Strays)
	}
	assertConservation(t, st)
	// Both backends served sub-requests.
	if b0.Received() == 0 || b1.Received() == 0 {
		t.Fatalf("backend rx split = %d/%d", b0.Received(), b1.Received())
	}
}

func TestFrontendTimeoutAnswersClient(t *testing.T) {
	// A single backend whose every request outlives the query timeout:
	// the client must still get an (error) answer, and the reaped
	// sub-request must be accounted as a timeout.
	h := &sleepHandler{serviceByType: []time.Duration{300 * time.Millisecond, 0}}
	_, b0 := newBackend(t, 1, h, nil)
	fe, err := Listen("127.0.0.1:0", Config{
		Backends:     []string{b0.Addr().String()},
		FanOut:       1,
		QueryTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	hdr, _, _, _ := cl.call(t, 1, typedPayload(0, "slow"), 2*time.Second)
	if hdr.Status != proto.StatusError {
		t.Fatalf("status = %v, want StatusError", hdr.Status)
	}
	// Let the backend's eventual reply arrive and be counted a stray.
	time.Sleep(400 * time.Millisecond)
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.QueriesFailed != 1 || st.SubTimedOut != 1 {
		t.Fatalf("failed=%d timedOut=%d, want 1/1", st.QueriesFailed, st.SubTimedOut)
	}
	if st.Strays != 1 {
		t.Fatalf("strays = %d, want 1 (the late backend reply)", st.Strays)
	}
	assertConservation(t, st)
}

func TestFrontendHedgingCutsStalledBackend(t *testing.T) {
	// Backend 0 sleeps 80ms per request, backend 1 answers instantly.
	// With hedging on (floor 5ms), a query whose only shard lands on
	// the stalled backend is rescued by a hedge to the fast one.
	slow := &sleepHandler{serviceByType: []time.Duration{80 * time.Millisecond, 0}}
	fast := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackend(t, 1, slow, nil)
	_, b1 := newBackend(t, 2, fast, nil)

	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:        1,
		QueryTimeout:  2 * time.Second,
		Hedge:         true,
		HedgeAfterMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	var rescued int
	for i := uint64(1); i <= 8; i++ {
		start := time.Now()
		hdr, _, corr, ok := cl.call(t, i, typedPayload(0, "h"), 4*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v", i, hdr.Status)
		}
		if ok && corr.Attempt > 0 && time.Since(start) < 60*time.Millisecond {
			rescued++
		}
	}
	// Drain in-flight duplicates (the slow backend's primaries are
	// still cooking) before asserting conservation.
	time.Sleep(200 * time.Millisecond)
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedges issued: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("no hedge wins: %+v", st)
	}
	if rescued == 0 {
		t.Fatal("no query visibly rescued by a hedge (Attempt>0 and fast)")
	}
	assertConservation(t, st)
}

func TestFrontendCrashEjection(t *testing.T) {
	// Backend 1 crashes its worker on the first request; the faults
	// crash hook feeds the frontend's health scorer, which must eject
	// it while backend 0 keeps answering.
	h0 := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	h1 := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackend(t, 2, h0, nil)
	crashProf := &faults.Profile{Seed: 1, CrashRate: 1.0, RespawnDelay: 500 * time.Millisecond}
	s1, b1 := newBackend(t, 1, h1, crashProf)

	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:        2,
		QueryTimeout:  150 * time.Millisecond,
		EjectCooldown: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Injector().SetCrashHook(func(int) { fe.NoteBackendCrash(1) })

	cl := newQueryClient(t, fe)
	// First query: shard on backend 1 dies with the worker (the crash
	// answers with a drop status or not at all); the hook ejects it.
	cl.call(t, 1, typedPayload(0, "boom"), 2*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for fe.BackendHealthy(1) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fe.BackendHealthy(1) {
		t.Fatal("backend 1 not ejected after injected crash")
	}
	// Traffic continues on the surviving backend alone.
	for i := uint64(2); i <= 10; i++ {
		hdr, _, corr, ok := cl.call(t, i, typedPayload(0, "ok"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v after ejection", i, hdr.Status)
		}
		if ok && corr.Shard != 1 {
			t.Fatalf("query %d fan-out degree = %d, want 1 (backend 1 ejected)", i, corr.Shard)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Ejections == 0 {
		t.Fatalf("no ejections recorded: %+v", st)
	}
	assertConservation(t, st)
}

// TestFrontendNackImmediateHedge: backend 0 sheds everything with
// admission NACKs, backend 1 is healthy. A NACKed primary must be
// re-issued to the spare immediately — even with latency hedging
// disabled — so every query still succeeds, and the NACK streak must
// eject the shedding backend like a timeout streak would.
func TestFrontendNackImmediateHedge(t *testing.T) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	shedSrv, err := psp.NewServer(psp.Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    h,
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
		Admission: &admission.Config{
			Budgets: []time.Duration{time.Nanosecond, time.Nanosecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b0, err := psp.ListenUDP("127.0.0.1:0", shedSrv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b0.Close() })
	_, b1 := newBackend(t, 2, h, nil)

	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:        1,
		QueryTimeout:  2 * time.Second,
		Hedge:         false, // NACK re-issue must not depend on latency hedging
		EjectCooldown: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)
	const queries = 20
	for i := uint64(1); i <= queries; i++ {
		hdr, pl, _, _ := cl.call(t, i, typedPayload(0, "nack"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v", i, hdr.Status)
		}
		if string(pl) != string(typedPayload(0, "nack")) {
			t.Fatalf("query %d payload = %q", i, pl)
		}
	}
	// The round-robin put roughly half the early primaries on the
	// shedding backend; its NACK streak must have ejected it.
	if fe.BackendHealthy(0) {
		t.Fatal("shedding backend not ejected by NACK streak")
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.QueriesOK != queries {
		t.Fatalf("ok=%d, want %d", st.QueriesOK, queries)
	}
	if st.SubNacked == 0 {
		t.Fatalf("no NACKs recorded: %+v", st)
	}
	// Every NACK found the healthy spare: one hedge per NACK, and the
	// hedge's reply settled the slot.
	if st.Hedges != st.SubNacked {
		t.Fatalf("hedges=%d nacked=%d, want equal", st.Hedges, st.SubNacked)
	}
	if st.HedgeWins != st.Hedges {
		t.Fatalf("hedge wins=%d of %d", st.HedgeWins, st.Hedges)
	}
	if st.Ejections == 0 {
		t.Fatalf("no ejection recorded: %+v", st)
	}
	assertConservation(t, st)
}

func TestFrontendShedsWithoutHealthyBackends(t *testing.T) {
	// Dial a port nobody answers on, eject it, and the frontend must
	// shed with StatusDropped rather than accept queries it cannot
	// route.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr().String()
	dead.Close()

	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      []string{addr},
		FanOut:        1,
		EjectCooldown: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.NoteBackendCrash(0)

	cl := newQueryClient(t, fe)
	hdr, _, _, _ := cl.call(t, 1, typedPayload(0, "x"), 2*time.Second)
	if hdr.Status != proto.StatusDropped {
		t.Fatalf("status = %v, want StatusDropped", hdr.Status)
	}
	if st := fe.Stats(); st.QueriesShed != 1 || st.Queries != 0 {
		t.Fatalf("shed=%d queries=%d, want 1/0", st.QueriesShed, st.Queries)
	}
}

func TestFrontendConfigValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	var c Config
	c.Backends = []string{"a", "b", "c"}
	c.FanOut = 99
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.FanOut != 3 {
		t.Fatalf("FanOut = %d, want clamped to 3", c.FanOut)
	}
	if c.QueryTimeout == 0 || c.Tick == 0 || c.PoolSize == 0 || c.EjectAfter == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

// BenchmarkFrontendLoopback measures one query's full path over
// loopback: client -> frontend -> backend -> frontend -> client,
// closed loop.
func BenchmarkFrontendLoopback(b *testing.B) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	srv, err := psp.NewServer(psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    h,
		Policy:     sched.Spec{Kind: sched.KindCFCFS},
	})
	if err != nil {
		b.Fatal(err)
	}
	us, err := psp.ListenUDP("127.0.0.1:0", srv) // starts srv
	if err != nil {
		b.Fatal(err)
	}
	defer us.Close()

	fe, err := Listen("127.0.0.1:0", Config{
		Backends: []string{us.Addr().String()},
		FanOut:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fe.Close()

	conn, err := net.DialUDP("udp", nil, fe.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := typedPayload(0, "bench")
	buf := make([]byte, 4096)
	msg := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg = proto.AppendMessage(msg[:0], proto.Header{
			Kind: proto.KindRequest, RequestID: uint64(i) + 1,
		}, payload)
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrontendEjectionCooldownReentry: ejection is a pause, not a
// removal. Once an ejected backend's cooldown passes it must rejoin
// the rotation — BackendHealthy flips back and fan-out returns to the
// full degree — and a crash during an existing ejection extends the
// cooldown without double-counting the ejection.
func TestFrontendEjectionCooldownReentry(t *testing.T) {
	h := &sleepHandler{serviceByType: []time.Duration{0, 0}}
	_, b0 := newBackend(t, 2, h, nil)
	_, b1 := newBackend(t, 2, h, nil)

	const cooldown = 250 * time.Millisecond
	fe, err := Listen("127.0.0.1:0", Config{
		Backends:      []string{b0.Addr().String(), b1.Addr().String()},
		FanOut:        2,
		QueryTimeout:  time.Second,
		EjectCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := newQueryClient(t, fe)

	// Warm-up: both backends answer, full fan-out.
	hdr, _, corr, ok := cl.call(t, 1, typedPayload(0, "warm"), 2*time.Second)
	if hdr.Status != proto.StatusOK {
		t.Fatalf("warm query status = %v", hdr.Status)
	}
	if ok && corr.Shard != 2 {
		t.Fatalf("warm fan-out degree = %d, want 2", corr.Shard)
	}

	// Eject backend 1 via the crash-note path (the end-to-end injected
	// version is TestFrontendCrashEjection; here the recovery is the
	// subject).
	ejectedAt := time.Now()
	fe.NoteBackendCrash(1)
	if fe.BackendHealthy(1) {
		t.Fatal("backend 1 healthy immediately after crash note")
	}

	// Inside the cooldown window, queries ride backend 0 alone. Guard
	// on the clock so a slow test host cannot turn re-entry into a
	// false failure.
	for i := uint64(2); i <= 6; i++ {
		if time.Since(ejectedAt) > cooldown/2 {
			break
		}
		hdr, _, corr, ok := cl.call(t, i, typedPayload(0, "solo"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v during cooldown", i, hdr.Status)
		}
		if ok && corr.Shard != 1 {
			t.Fatalf("query %d fan-out degree = %d during cooldown, want 1", i, corr.Shard)
		}
	}

	// Cooldown elapses: the backend must re-enter on its own — no
	// probe, no operator action.
	deadline := time.Now().Add(5 * time.Second)
	for !fe.BackendHealthy(1) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !fe.BackendHealthy(1) {
		t.Fatal("backend 1 never recovered after cooldown")
	}
	if waited := time.Since(ejectedAt); waited < cooldown {
		t.Fatalf("backend healthy after %v, before the %v cooldown elapsed", waited, cooldown)
	}

	// And it takes traffic again: some query fans out at full degree.
	sawFull := false
	for i := uint64(100); i < 140 && !sawFull; i++ {
		hdr, _, corr, ok := cl.call(t, i, typedPayload(0, "back"), 2*time.Second)
		if hdr.Status != proto.StatusOK {
			t.Fatalf("query %d status = %v after re-entry", i, hdr.Status)
		}
		sawFull = ok && corr.Shard == 2
	}
	if !sawFull {
		t.Fatal("fan-out never returned to 2 after cooldown re-entry")
	}

	// Re-ejection counts once; a crash while already ejected extends
	// the cooldown instead of inflating the ejection ledger.
	fe.NoteBackendCrash(1)
	fe.NoteBackendCrash(1)
	if fe.BackendHealthy(1) {
		t.Fatal("backend 1 healthy right after re-ejection")
	}

	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	if st.Ejections != 2 {
		t.Fatalf("ejections = %d, want 2 (extension must not re-count)", st.Ejections)
	}
	assertConservation(t, st)
}
