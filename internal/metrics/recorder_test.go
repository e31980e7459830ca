package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(2, []string{"short", "long"})
	r.SetSpan(0, time.Second)
	// Short: arrived 0, dispatched 1µs, completed 2µs, service 1µs.
	r.Complete(0, 0, 2*time.Microsecond, time.Microsecond, time.Microsecond, 0)
	// Long: arrived 0, completed 200µs, service 100µs.
	r.Complete(1, 0, 200*time.Microsecond, 100*time.Microsecond, 100*time.Microsecond, 2)

	short := r.Type(0)
	if short.Name != "short" || short.Completed != 1 {
		t.Fatalf("short stats %+v", short)
	}
	if got := SlowdownAt(short, 1); got < 1.9 || got > 2.1 {
		t.Fatalf("short slowdown %g, want ~2", got)
	}
	long := r.Type(1)
	if got := SlowdownAt(long, 1); got < 1.9 || got > 2.1 {
		t.Fatalf("long slowdown %g, want ~2", got)
	}
	if long.Preemptions != 2 {
		t.Fatalf("long preemptions %d", long.Preemptions)
	}
	all := r.All()
	if all.Completed != 2 {
		t.Fatalf("aggregate completed %d", all.Completed)
	}
	if r.Throughput() != 2 {
		t.Fatalf("throughput %g, want 2 rps", r.Throughput())
	}
}

func TestRecorderWarmupDiscard(t *testing.T) {
	r := NewRecorder(1, nil)
	r.SetWarmup(100 * time.Millisecond)
	r.Complete(0, 50*time.Millisecond, 51*time.Millisecond, time.Millisecond, 50*time.Millisecond, 0)
	if r.All().Completed != 0 {
		t.Fatal("pre-warmup completion recorded")
	}
	r.Drop(0, 50*time.Millisecond)
	if r.All().Dropped != 0 {
		t.Fatal("pre-warmup drop recorded")
	}
	r.Complete(0, 150*time.Millisecond, 151*time.Millisecond, time.Millisecond, 150*time.Millisecond, 0)
	if r.All().Completed != 1 {
		t.Fatal("post-warmup completion not recorded")
	}
}

func TestRecorderRTT(t *testing.T) {
	r := NewRecorder(1, nil)
	r.SetRTT(10 * time.Microsecond)
	r.Complete(0, 0, 5*time.Microsecond, 5*time.Microsecond, 0, 0)
	ts := r.Type(0)
	serverP := ts.Latency.QuantileDuration(1)
	e2eP := ts.EndToEnd.QuantileDuration(1)
	if e2eP-serverP < 9*time.Microsecond {
		t.Fatalf("RTT not reflected: server %v e2e %v", serverP, e2eP)
	}
}

func TestRecorderDropsAndRate(t *testing.T) {
	r := NewRecorder(2, nil)
	r.Complete(0, 0, 1, 1, 0, 0)
	r.Drop(1, 0)
	r.Drop(1, 0)
	r.Drop(1, 0)
	if r.Type(1).Dropped != 3 || r.All().Dropped != 3 {
		t.Fatal("drops miscounted")
	}
	if got := r.DropRate(); got < 0.74 || got > 0.76 {
		t.Fatalf("drop rate %g, want 0.75", got)
	}
}

func TestRecorderUnknownTypeFoldsToLast(t *testing.T) {
	r := NewRecorder(2, nil)
	r.Complete(-1, 0, 10, 10, 0, 0)
	r.Complete(99, 0, 10, 10, 0, 0)
	if r.Type(1).Completed != 2 {
		t.Fatalf("unknown completions went to %d/%d", r.Type(0).Completed, r.Type(1).Completed)
	}
}

func TestZeroServiceSlowdown(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Complete(0, 0, 100, 0, 0, 0)
	if got := SlowdownAt(r.Type(0), 1); got != 1 {
		t.Fatalf("zero-service slowdown %g, want 1", got)
	}
}

func TestQueueDelayRecorded(t *testing.T) {
	r := NewRecorder(1, nil)
	r.Complete(0, 0, 30*time.Microsecond, 10*time.Microsecond, 20*time.Microsecond, 0)
	qd := r.Type(0).QueueDelay.QuantileDuration(1)
	if qd < 19*time.Microsecond || qd > 21*time.Microsecond {
		t.Fatalf("queue delay %v, want ~20µs", qd)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(2, []string{"a", "b"})
	r.Complete(0, 0, 2*time.Microsecond, time.Microsecond, 0, 0)
	rows := r.Summarize()
	if len(rows) != 3 {
		t.Fatalf("summary rows %d, want 3 (2 types + aggregate)", len(rows))
	}
	if rows[0].Name != "a" || rows[2].Name != "all" {
		t.Fatalf("row names %q/%q", rows[0].Name, rows[2].Name)
	}
	if rows[0].Completed != 1 || rows[1].Completed != 0 {
		t.Fatal("per-type counts wrong")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	ts.Record(50*time.Millisecond, 0, 10)
	ts.Record(60*time.Millisecond, 0, 20)
	ts.Record(250*time.Millisecond, 0, 100)
	ts.Record(250*time.Millisecond, 1, 7)
	pts := ts.Series(0, 1.0)
	if len(pts) != 3 {
		t.Fatalf("series length %d, want 3 windows", len(pts))
	}
	if pts[0].Count != 2 || pts[0].Value != 20 {
		t.Fatalf("window 0: %+v", pts[0])
	}
	if pts[1].Count != 0 {
		t.Fatalf("gap window should be empty: %+v", pts[1])
	}
	if pts[2].Count != 1 || pts[2].Value != 100 {
		t.Fatalf("window 2: %+v", pts[2])
	}
	other := ts.Series(1, 1.0)
	if other[2].Value != 7 {
		t.Fatalf("type 1 window 2: %+v", other[2])
	}
	if ts.Windows() != 2 {
		t.Fatalf("windows %d, want 2 populated", ts.Windows())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if pts := ts.Series(0, 0.5); pts != nil {
		t.Fatalf("empty series returned %v", pts)
	}
}

func TestTimeSeriesDefaultWidth(t *testing.T) {
	ts := NewTimeSeries(0)
	if ts.WindowWidth() <= 0 {
		t.Fatal("non-positive default width")
	}
}

func TestTypeNames(t *testing.T) {
	r := NewRecorder(2, []string{"zeta", "alpha"})
	names := r.TypeNames()
	if len(names) != 2 || names[0] != "zeta" || names[1] != "alpha" {
		t.Fatalf("names %v, want declaration order", names)
	}
}

func TestWarmupAccessor(t *testing.T) {
	r := NewRecorder(1, nil)
	r.SetWarmup(42 * time.Millisecond)
	if r.Warmup() != 42*time.Millisecond {
		t.Fatalf("warmup %v", r.Warmup())
	}
}

// TestAllFoldEqualsRecordingTwice: the aggregate All folds from the
// per-type statistics equals one recorded alongside them, request by
// request, also when an earlier fold was taken mid-run.
func TestAllFoldEqualsRecordingTwice(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	r := NewRecorder(3, nil)
	r.SetRTT(10 * time.Microsecond)
	want := TypeStats{Name: "all"}
	for i := 0; i < 20000; i++ {
		if i == 10000 {
			r.All()
		}
		typ := rnd.Intn(4) - 1 // -1 folds into the last type
		if rnd.Intn(50) == 0 {
			r.Drop(typ, 0)
			want.Dropped++
			continue
		}
		service := time.Duration(rnd.ExpFloat64() * float64(time.Millisecond))
		queue := time.Duration(rnd.ExpFloat64() * float64(10*time.Millisecond))
		preempt := rnd.Intn(3)
		r.Complete(typ, 0, queue+service, service, queue, preempt)
		want.Latency.RecordDuration(queue + service)
		want.EndToEnd.RecordDuration(queue + service + 10*time.Microsecond)
		slowdown := int64(SlowdownScale)
		if service > 0 {
			slowdown = int64(float64(queue+service) / float64(service) * SlowdownScale)
		}
		want.Slowdown.Record(slowdown)
		want.QueueDelay.RecordDuration(queue)
		want.Completed++
		want.Preemptions += uint64(preempt)
		want.ServiceSum += service
	}
	if got := r.All(); !reflect.DeepEqual(*got, want) {
		t.Fatalf("folded aggregate differs from the recorded one:\n got %v %v\nwant %v %v",
			got.Latency.String(), got.Slowdown.String(), want.Latency.String(), want.Slowdown.String())
	}
}
