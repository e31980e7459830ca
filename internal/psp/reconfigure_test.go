package psp

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/proto"
	"repro/internal/reconfig"
	"repro/internal/spin"
)

func intp(n int) *int { return &n }

func mustReconfigure(t *testing.T, srv *Server, sp reconfig.Spec) reconfig.Result {
	t.Helper()
	res, err := srv.Reconfigure(sp)
	if err != nil {
		t.Fatalf("Reconfigure(%+v): %v", sp, err)
	}
	return res
}

func TestParsePolicyName(t *testing.T) {
	good := map[string]Mode{
		"darc": ModeDARC, "DARC": ModeDARC,
		"c-fcfs": ModeCFCFS, "cfcfs": ModeCFCFS, "C-FCFS": ModeCFCFS,
		"d-fcfs": ModeDFCFS, "dfcfs": ModeDFCFS,
		"darc-static": ModeDARCStatic, "DARCStatic": ModeDARCStatic,
	}
	for name, want := range good {
		if got, err := ParsePolicyName(name); err != nil || got != want {
			t.Errorf("ParsePolicyName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "fcfs", "warp-speed"} {
		if _, err := ParsePolicyName(name); err == nil {
			t.Errorf("ParsePolicyName(%q) accepted", name)
		}
	}
}

func TestReconfigureRejects(t *testing.T) {
	srv := newEchoServer(t, 2, ModeDARC)
	cases := []struct {
		name string
		spec reconfig.Spec
	}{
		{"empty", reconfig.Spec{}},
		{"bad policy", reconfig.Spec{Policy: &reconfig.PolicyChange{Mode: "warp"}}},
		{"zero workers", reconfig.Spec{Workers: intp(0)}},
		{"darc-static without means", reconfig.Spec{Policy: &reconfig.PolicyChange{Mode: "darc-static"}}},
		{"darc-static reserved too large", reconfig.Spec{Policy: &reconfig.PolicyChange{
			Mode:           "darc-static",
			StaticMeans:    []time.Duration{5 * time.Microsecond, 200 * time.Microsecond},
			StaticReserved: 3,
		}}},
		{"admission on admissionless server", reconfig.Spec{Admission: &reconfig.AdmissionChange{}}},
	}
	for _, tc := range cases {
		if _, err := srv.Reconfigure(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	snap := srv.ConfigSnapshot()
	if snap.Generation != 0 || snap.Workers != 2 || snap.Policy != "DARC" {
		t.Fatalf("rejected specs mutated the server: %+v", snap)
	}
	if srv.rcRejected.Load() != uint64(len(cases)) {
		t.Fatalf("rejections counted %d, want %d", srv.rcRejected.Load(), len(cases))
	}
}

func TestReconfigureBeforeStartAndAfterStop(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    1,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{serviceByType: []time.Duration{time.Microsecond, time.Microsecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := reconfig.Spec{Workers: intp(2)}
	if _, err := srv.Reconfigure(sp); err == nil {
		t.Fatal("Reconfigure before Start accepted")
	}
	srv.Start()
	srv.Stop()
	if _, err := srv.Reconfigure(sp); !errors.Is(err, ErrServerStopped) {
		t.Fatalf("Reconfigure after Stop: %v, want ErrServerStopped", err)
	}
}

// TestReconfigPolicySwapNoDrops is the acceptance-criteria test: a
// sustained submit load riding across repeated policy swaps (crossing
// the central/per-worker queue-family boundary every time) with every
// single request answered successfully — no drops, no sheds, no
// migration losses. Run under -race in CI.
func TestReconfigPolicySwapNoDrops(t *testing.T) {
	srv := newEchoServer(t, 4, ModeDARC)
	var (
		wg        sync.WaitGroup
		submitted atomic.Uint64
		completed atomic.Uint64
		dropped   atomic.Uint64
		stop      atomic.Bool
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				ch, err := srv.Submit(typedPayload(g%2, "swap"))
				if err != nil {
					// Ingress backpressure: retry, never a lost request.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				submitted.Add(1)
				resp := <-ch
				if resp.Status != proto.StatusOK {
					dropped.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(g)
	}
	policies := []string{"cfcfs", "dfcfs", "darc", "dfcfs", "cfcfs", "darc"}
	var migrated int
	for round := 0; round < 4; round++ {
		for _, p := range policies {
			res := mustReconfigure(t, srv, reconfig.Spec{Policy: &reconfig.PolicyChange{Mode: p}})
			migrated += res.Migrated
			if res.MigratedShed != 0 {
				t.Fatalf("policy swap to %s shed %d migrating requests", p, res.MigratedShed)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	if dropped.Load() != 0 {
		t.Fatalf("%d of %d requests dropped across policy swaps", dropped.Load(), submitted.Load())
	}
	if completed.Load() != submitted.Load() {
		t.Fatalf("completed %d != submitted %d", completed.Load(), submitted.Load())
	}
	snap := srv.ConfigSnapshot()
	if snap.Policy != "DARC" {
		t.Fatalf("final policy %s, want DARC", snap.Policy)
	}
	if swaps := srv.rcPolicySwaps.Load(); swaps != uint64(4*len(policies)) {
		t.Fatalf("policy swaps counted %d, want %d", swaps, 4*len(policies))
	}
	t.Logf("submitted=%d migrated=%d", submitted.Load(), migrated)
}

// TestReconfigResizeUnderLoad shrinks and grows the pool while load is
// in flight: every request is answered, the drain is accounted, and
// retired slots are reusable.
func TestReconfigResizeUnderLoad(t *testing.T) {
	srv := newEchoServer(t, 4, ModeCFCFS)
	var (
		wg        sync.WaitGroup
		submitted atomic.Uint64
		failed    atomic.Uint64
		stop      atomic.Bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			ch, err := srv.Submit(typedPayload(1, "resize")) // 200µs type: keeps workers busy
			if err != nil {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			submitted.Add(1)
			if resp := <-ch; resp.Status != proto.StatusOK {
				failed.Add(1)
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	for _, target := range []int{1, 4, 2, 6, 3} {
		res := mustReconfigure(t, srv, reconfig.Spec{Workers: intp(target)})
		if got := srv.ConfigSnapshot().Workers; got != target {
			t.Fatalf("after resize: %d workers, want %d", got, target)
		}
		if res.Retired == 0 && res.Added == 0 {
			t.Fatalf("resize to %d reports no pool change: %+v", target, res)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed across resizes", failed.Load(), submitted.Load())
	}
	if resizes := srv.rcResizes.Load(); resizes != 5 {
		t.Fatalf("resizes counted %d, want 5", resizes)
	}
}

// TestReconfigShrinkDrainsBusyWorker pins the graceful-drain contract:
// a shrink while every worker is mid-request waits for the retiring
// workers to finish (the in-flight requests complete normally) instead
// of preempting them.
func TestReconfigShrinkDrainsBusyWorker(t *testing.T) {
	spin.Calibrate(10 * time.Millisecond)
	release := make(chan struct{})
	var serving sync.WaitGroup
	serving.Add(2)
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			serving.Done()
			<-release
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	ch1, err := srv.Submit(typedPayload(0, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := srv.Submit(typedPayload(0, "b"))
	if err != nil {
		t.Fatal(err)
	}
	serving.Wait() // both workers are now parked in the handler

	done := make(chan reconfig.Result, 1)
	go func() {
		res, rerr := srv.Reconfigure(reconfig.Spec{Workers: intp(1)})
		if rerr != nil {
			t.Error(rerr)
		}
		done <- res
	}()
	select {
	case <-done:
		t.Fatal("shrink completed while the retiring worker was still mid-request")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	res := <-done
	if res.Retired != 1 || res.DrainWait <= 0 {
		t.Fatalf("shrink result %+v, want Retired=1 and a positive DrainWait", res)
	}
	for _, ch := range []<-chan Response{ch1, ch2} {
		if resp := <-ch; resp.Status != proto.StatusOK {
			t.Fatalf("in-flight request finished %v, want OK", resp.Status)
		}
	}
	if got := srv.ConfigSnapshot().Workers; got != 1 {
		t.Fatalf("pool %d, want 1", got)
	}
}

// TestReconfigSerializesBehindDrain checks that an op queued behind a
// draining shrink waits its turn and then applies.
func TestReconfigSerializesBehindDrain(t *testing.T) {
	release := make(chan struct{})
	var serving sync.WaitGroup
	serving.Add(2)
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			serving.Done()
			<-release
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	// Occupy both workers so the shrink's retiree is mid-request.
	ch, err := srv.Submit(typedPayload(0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := srv.Submit(typedPayload(0, "y"))
	if err != nil {
		t.Fatal(err)
	}
	serving.Wait()

	shrinkDone := make(chan reconfig.Result, 1)
	growDone := make(chan reconfig.Result, 1)
	go func() {
		res, _ := srv.Reconfigure(reconfig.Spec{Workers: intp(1)})
		shrinkDone <- res
	}()
	// Give the shrink time to start draining, then queue a grow behind it.
	time.Sleep(10 * time.Millisecond)
	go func() {
		res, _ := srv.Reconfigure(reconfig.Spec{Workers: intp(3)})
		growDone <- res
	}()
	select {
	case <-growDone:
		t.Fatal("grow applied while the shrink was still draining")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	shrink := <-shrinkDone
	grow := <-growDone
	if grow.Generation <= shrink.Generation {
		t.Fatalf("generations out of order: shrink %d, grow %d", shrink.Generation, grow.Generation)
	}
	<-ch
	<-ch2
	if got := srv.ConfigSnapshot().Workers; got != 3 {
		t.Fatalf("pool %d, want 3", got)
	}
}

// TestReconfigAdmissionLive swaps admission budgets on a running
// server and checks they take effect without disturbing the ledger.
func TestReconfigAdmissionLive(t *testing.T) {
	spin.Calibrate(10 * time.Millisecond)
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler:    &echoHandler{serviceByType: []time.Duration{5 * time.Microsecond, 50 * time.Microsecond}},
		Admission:  &admission.Config{Budgets: []time.Duration{time.Millisecond, time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	for i := 0; i < 10; i++ {
		if _, err := srv.Call(typedPayload(i%2, "warm")); err != nil {
			t.Fatal(err)
		}
	}
	newBudget := 30 * time.Millisecond
	trim := 4 * time.Millisecond
	res := mustReconfigure(t, srv, reconfig.Spec{Admission: &reconfig.AdmissionChange{
		Budgets:       []time.Duration{newBudget, newBudget},
		OverloadDelay: &trim,
	}})
	if len(res.Applied) == 0 {
		t.Fatalf("no change recorded: %+v", res)
	}
	if got := srv.Admission().Budget(0); got != newBudget {
		t.Fatalf("live budget %v, want %v", got, newBudget)
	}
	if got := srv.Admission().OverloadThreshold(); got != trim {
		t.Fatalf("overload threshold %v, want %v", got, trim)
	}
	st := srv.Admission().Snapshot()
	if st.Slots[0].Accepted+st.Slots[1].Accepted != 10 {
		t.Fatalf("ledger disturbed by update: %+v", st.Slots)
	}
	snap := srv.ConfigSnapshot()
	if !snap.Admission || len(snap.Budgets) != 3 {
		t.Fatalf("snapshot admission view: %+v", snap)
	}
}

// TestReconfigDARCStaticSwap swaps into darc-static with fresh means
// and out again, exercising the static-order recompute and the
// reserved-prefix clamp on shrink.
func TestReconfigDARCStaticSwap(t *testing.T) {
	srv := newEchoServer(t, 3, ModeCFCFS)
	res := mustReconfigure(t, srv, reconfig.Spec{Policy: &reconfig.PolicyChange{
		Mode:           "darc-static",
		StaticReserved: 2,
		StaticMeans:    []time.Duration{5 * time.Microsecond, 200 * time.Microsecond},
	}})
	if res.Generation == 0 {
		t.Fatalf("result: %+v", res)
	}
	if got := srv.ConfigSnapshot().Policy; got != "DARC-static" {
		t.Fatalf("policy %s, want DARC-static", got)
	}
	for i := 0; i < 20; i++ {
		if _, err := srv.Call(typedPayload(i%2, "static")); err != nil {
			t.Fatal(err)
		}
	}
	// Shrinking to 1 worker must clamp the reserved prefix below the
	// pool size (2 reserved cores in a 1-worker pool would starve
	// every non-short type forever).
	mustReconfigure(t, srv, reconfig.Spec{Workers: intp(1)})
	if got := srv.core.StaticReserved(); got != 0 {
		t.Fatalf("reserved %d after shrink to 1, want 0", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := srv.Call(typedPayload(i%2, "small")); err != nil {
			t.Fatal(err)
		}
	}
	mustReconfigure(t, srv, reconfig.Spec{Policy: &reconfig.PolicyChange{Mode: "darc"}})
	if got := srv.ConfigSnapshot().Policy; got != "DARC" {
		t.Fatalf("policy %s, want DARC", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := srv.Call(typedPayload(i%2, "back")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReconfigAdminEndpointLive drives the whole stack over HTTP: the
// admin endpoints ServeMetrics mounts apply a real spec to a live
// server and the metrics exposition reflects it.
func TestReconfigAdminEndpointLive(t *testing.T) {
	srv := newEchoServer(t, 2, ModeDARC)
	addr, shutdown, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	cli := &http.Client{Timeout: 5 * time.Second}

	resp, err := cli.PostForm("http://"+addr+"/admin/reconfig",
		url.Values{"policy": {"cfcfs"}, "workers": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	var res reconfig.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || res.Generation != 1 {
		t.Fatalf("status %d result %+v", resp.StatusCode, res)
	}

	conf, err := cli.Get("http://" + addr + "/admin/config")
	if err != nil {
		t.Fatal(err)
	}
	var snap reconfig.Snapshot
	if err := json.NewDecoder(conf.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	conf.Body.Close()
	if snap.Policy != "c-FCFS" || snap.Workers != 3 || snap.Generation != 1 {
		t.Fatalf("snapshot %+v", snap)
	}

	// The rejected-spec path surfaces the server's error as 409.
	bad, err := cli.PostForm("http://"+addr+"/admin/reconfig", url.Values{"policy": {"warp"}})
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusConflict {
		t.Fatalf("bad policy: status %d", bad.StatusCode)
	}

	metrics, err := cli.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"persephone_workers_active 3",
		"persephone_reconfig_generation 1",
		"persephone_reconfig_applied_total 1",
		"persephone_reconfig_rejected_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestReconfigMigrationOverflow pins the no-silent-loss contract on
// the migration path: a policy swap whose target queue family cannot
// hold the whole backlog answers the overflow (StatusDropped without
// admission) instead of losing it.
func TestReconfigMigrationOverflow(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseGate := func() { releaseOnce.Do(func() { close(release) }) }
	served := make(chan struct{}, 8) // buffered: fires again for every post-release request
	srv, err := NewServer(Config{
		Workers:    1,
		QueueCap:   2,
		Mode:       ModeCFCFS,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			served <- struct{}{}
			<-release
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	defer releaseGate() // a Fatal before the explicit release must not wedge Stop

	// One request occupies the worker; four more park across the
	// typed queues and the unknown spillway (type 9 is unclassifiable
	// with Types: 2). Central capacity is 3x QueueCap; the d-FCFS
	// target has one worker queue of cap 2, so two must overflow.
	chans := make([]<-chan Response, 0, 5)
	first, err := srv.Submit(typedPayload(0, "busy"))
	if err != nil {
		t.Fatal(err)
	}
	chans = append(chans, first)
	<-served
	for _, typ := range []int{0, 1, 1, 9} {
		ch, err := srv.Submit(typedPayload(typ, "queued"))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// Submit parks requests on the ingress ring; the dispatcher
	// consumes control-plane ops *before* draining ingress, so wait
	// until all five arrivals are classified and enqueued — otherwise
	// the swap would run against empty central queues and migrate
	// nothing.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if srv.StatsSnapshot().Enqueued == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never enqueued: %+v", srv.StatsSnapshot())
		}
		time.Sleep(time.Millisecond)
	}

	res := mustReconfigure(t, srv, reconfig.Spec{
		Policy: &reconfig.PolicyChange{Mode: "dfcfs"},
	})
	if res.Migrated != 2 || res.MigratedShed != 2 {
		t.Fatalf("migrated=%d shed=%d, want 2/2: %+v", res.Migrated, res.MigratedShed, res)
	}

	releaseGate()
	var ok, dropped int
	for _, ch := range chans {
		switch resp := <-ch; resp.Status {
		case proto.StatusOK:
			ok++
		case proto.StatusDropped:
			dropped++
		default:
			t.Fatalf("unexpected status %v", resp.Status)
		}
	}
	if ok != 3 || dropped != 2 {
		t.Fatalf("ok=%d dropped=%d, want 3 answered OK and 2 answered dropped", ok, dropped)
	}
}

// TestReconfigAdmissionAllFields updates every admission knob in one
// spec and checks the merged policy installs wholesale.
func TestReconfigAdmissionAllFields(t *testing.T) {
	srv, err := NewServer(Config{
		Workers:    2,
		Classifier: classify.Field{Offset: 0, Types: 2},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			return copy(r, p), proto.StatusOK
		}),
		Admission: &admission.Config{Budgets: []time.Duration{time.Millisecond, time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	var (
		unknown = 40 * time.Millisecond
		trim    = 6 * time.Millisecond
		mult    = 25.0
		floor   = 2 * time.Millisecond
	)
	mustReconfigure(t, srv, reconfig.Spec{Admission: &reconfig.AdmissionChange{
		Budgets:       []time.Duration{10 * time.Millisecond, 80 * time.Millisecond},
		UnknownBudget: &unknown,
		OverloadDelay: &trim,
		AutoMult:      &mult,
		MinBudget:     &floor,
	}})
	cfg := srv.Admission().Config()
	if cfg.Budgets[0] != 10*time.Millisecond || cfg.Budgets[1] != 80*time.Millisecond ||
		cfg.UnknownBudget != unknown || cfg.OverloadDelay != trim ||
		cfg.AutoMult != mult || cfg.MinBudget != floor {
		t.Fatalf("merged admission config %+v", cfg)
	}
	if got := srv.Admission().Budget(0); got != 10*time.Millisecond {
		t.Fatalf("live budget %v", got)
	}
}

// TestReconfigShrinkResteersDFCFSBacklog shrinks a d-FCFS pool whose
// workers are all busy with backlogs parked behind them: the retiring
// worker's backlog must re-steer across the survivors and every
// request must still be answered OK.
func TestReconfigShrinkResteersDFCFSBacklog(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseGate := func() { releaseOnce.Do(func() { close(release) }) }
	served := make(chan struct{}, 16) // buffered: fires again for every post-release request
	srv, err := NewServer(Config{
		Workers:    2,
		Mode:       ModeDFCFS,
		Classifier: classify.Field{Offset: 0, Types: 1},
		Handler: HandlerFunc(func(typ int, p, r []byte) (int, proto.Status) {
			served <- struct{}{}
			<-release
			return copy(r, p), proto.StatusOK
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	defer releaseGate() // a Fatal before the explicit release must not wedge Stop

	// Fourteen arrivals spread across both worker queues by the
	// steering hash; one occupies each worker, the rest park behind
	// them.
	chans := make([]<-chan Response, 0, 14)
	for i := 0; i < 14; i++ {
		ch, err := srv.Submit(typedPayload(0, "parked"))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	<-served
	<-served

	done := make(chan reconfig.Result, 1)
	go func() {
		res, rerr := srv.Reconfigure(reconfig.Spec{Workers: intp(1)})
		if rerr != nil {
			t.Error(rerr)
		}
		done <- res
	}()
	// The shrink pends on the busy retiree; the handler gate must not
	// hold it hostage forever.
	time.Sleep(5 * time.Millisecond)
	releaseGate()
	res := <-done
	if res.Retired != 1 {
		t.Fatalf("retired %d, want 1: %+v", res.Retired, res)
	}
	for i, ch := range chans {
		if resp := <-ch; resp.Status != proto.StatusOK {
			t.Fatalf("request %d finished %v, want OK", i, resp.Status)
		}
	}
	if got := srv.ConfigSnapshot().Workers; got != 1 {
		t.Fatalf("pool %d, want 1", got)
	}
}
