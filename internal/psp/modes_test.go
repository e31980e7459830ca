package psp_test

// Tests for the non-DARC live dispatch modes added for the conformance
// harness: d-FCFS (seeded per-worker steering, no work sharing) and
// DARC-static (the paper's §5.3 manual core reservation ablation).

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/psp"
	"repro/internal/trace"
)

func typedPayload(typ int) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint16(p, uint16(typ))
	return p
}

// newModeServer builds a started 2-type server in the given mode with
// a span sink, returning the server and the (mutex-guarded) span
// collector.
func newModeServer(t *testing.T, cfg psp.Config) (*psp.Server, func() []trace.Span) {
	t.Helper()
	var mu sync.Mutex
	var spans []trace.Span
	cfg.TraceSink = func(sp trace.Span) {
		mu.Lock()
		spans = append(spans, sp)
		mu.Unlock()
	}
	srv, err := psp.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, func() []trace.Span {
		psp.WaitSpansSettled(t, srv)
		mu.Lock()
		defer mu.Unlock()
		out := append([]trace.Span(nil), spans...)
		return out
	}
}

func sleepHandler(d0, d1 time.Duration) psp.Handler {
	return psp.HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
		if typ == 0 {
			time.Sleep(d0)
		} else {
			time.Sleep(d1)
		}
		return copy(r, p), proto.StatusOK
	})
}

func TestModeStrings(t *testing.T) {
	for mode, want := range map[psp.Mode]string{
		psp.ModeDARC:       "DARC",
		psp.ModeCFCFS:      "c-FCFS",
		psp.ModeDFCFS:      "d-FCFS",
		psp.ModeDARCStatic: "DARC-static",
	} {
		if got := mode.String(); got != want {
			t.Errorf("mode %d String() = %q, want %q", mode, got, want)
		}
	}
}

func TestDARCStaticConfigValidation(t *testing.T) {
	base := func() psp.Config {
		return psp.Config{
			Workers:        2,
			Classifier:     classify.Field{Offset: 0, Types: 2},
			Handler:        sleepHandler(0, 0),
			Mode:           psp.ModeDARCStatic,
			StaticMeans:    []time.Duration{time.Microsecond, time.Millisecond},
			StaticReserved: 1,
		}
	}
	cfg := base()
	cfg.StaticMeans = cfg.StaticMeans[:1]
	if _, err := psp.NewServer(cfg); err == nil {
		t.Error("StaticMeans shorter than type count accepted")
	}
	cfg = base()
	cfg.StaticReserved = 3
	if _, err := psp.NewServer(cfg); err == nil {
		t.Error("StaticReserved > Workers accepted")
	}
	cfg = base()
	cfg.StaticReserved = -1
	if _, err := psp.NewServer(cfg); err == nil {
		t.Error("negative StaticReserved accepted")
	}
	if _, err := psp.NewServer(base()); err != nil {
		t.Errorf("valid DARC-static config rejected: %v", err)
	}
}

// TestDARCStaticWorkerEligibility floods a 3-worker DARC-static server
// (1 reserved core) with interleaved short/long requests and asserts
// the §5.3 invariant on the recorded spans: the statically long type
// never runs on the reserved worker, while the short type reaches it.
// StaticMeans deliberately lists the long type first so the test also
// pins the sort-by-mean ordering rather than index order.
func TestDARCStaticWorkerEligibility(t *testing.T) {
	const reserved = 1
	srv, collect := newModeServer(t, psp.Config{
		Workers:        3,
		Classifier:     classify.Field{Offset: 0, Types: 2},
		Handler:        sleepHandler(400*time.Microsecond, 50*time.Microsecond),
		Mode:           psp.ModeDARCStatic,
		StaticMeans:    []time.Duration{400 * time.Microsecond, 50 * time.Microsecond},
		StaticReserved: reserved,
	})

	var chans []<-chan psp.Response
	for i := 0; i < 300; i++ {
		typ := i % 2 // alternate long/short
		ch, err := srv.Submit(typedPayload(typ))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Status != proto.StatusOK {
			t.Fatalf("response status %v", resp.Status)
		}
	}

	spans := collect()
	if len(spans) != 300 {
		t.Fatalf("got %d spans, want 300", len(spans))
	}
	shortOnReserved := false
	for _, sp := range spans {
		switch sp.Type {
		case 0: // long
			if sp.Worker < reserved {
				t.Fatalf("long request %d ran on reserved worker %d", sp.ID, sp.Worker)
			}
		case 1: // short
			if sp.Worker < reserved {
				shortOnReserved = true
			}
		default:
			t.Fatalf("unexpected span type %d", sp.Type)
		}
	}
	if !shortOnReserved {
		t.Error("no short request ever used the reserved worker")
	}
}

// TestDFCFSDeterministicSteering replays the same sequential request
// sequence through two servers sharing a SteerSeed and asserts the
// per-request worker assignment matches exactly; a different seed must
// produce a different assignment sequence.
func TestDFCFSDeterministicSteering(t *testing.T) {
	run := func(seed uint64) []int {
		srv, collect := newModeServer(t, psp.Config{
			Workers:    3,
			Classifier: classify.Field{Offset: 0, Types: 2},
			Handler:    sleepHandler(0, 0),
			Mode:       psp.ModeDFCFS,
			SteerSeed:  seed,
		})
		for i := 0; i < 64; i++ {
			if _, err := srv.Call(typedPayload(i % 2)); err != nil {
				t.Fatal(err)
			}
		}
		spans := collect()
		if len(spans) != 64 {
			t.Fatalf("got %d spans, want 64", len(spans))
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
		workers := make([]int, len(spans))
		for i, sp := range spans {
			workers[i] = sp.Worker
		}
		return workers
	}

	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: worker %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical steering over 64 requests")
	}
}

// TestDFCFSPerWorkerFIFO submits a burst from one goroutine and checks
// each worker served its private queue in arrival order — d-FCFS has
// no cross-worker reordering, only steering.
func TestDFCFSPerWorkerFIFO(t *testing.T) {
	srv, collect := newModeServer(t, psp.Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    sleepHandler(80*time.Microsecond, 80*time.Microsecond),
		Mode:       psp.ModeDFCFS,
		SteerSeed:  7,
	})
	var chans []<-chan psp.Response
	for i := 0; i < 200; i++ {
		ch, err := srv.Submit(typedPayload(i % 2))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		<-ch
	}
	spans := collect()
	if len(spans) != 200 {
		t.Fatalf("got %d spans, want 200", len(spans))
	}
	perWorker := map[int][]trace.Span{}
	for _, sp := range spans {
		perWorker[sp.Worker] = append(perWorker[sp.Worker], sp)
	}
	if len(perWorker) != 2 {
		t.Fatalf("steering used %d workers, want 2", len(perWorker))
	}
	for w, list := range perWorker {
		sort.Slice(list, func(i, j int) bool { return list[i].Started < list[j].Started })
		for i := 1; i < len(list); i++ {
			if list[i].Ingress < list[i-1].Ingress {
				t.Fatalf("worker %d served request %d (ingress %v) after %d (ingress %v)",
					w, list[i].ID, list[i].Ingress, list[i-1].ID, list[i-1].Ingress)
			}
		}
	}
}
