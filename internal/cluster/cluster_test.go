package cluster

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// fifoPolicy is a minimal c-FCFS used to exercise the machine.
type fifoPolicy struct {
	m *Machine
	q FIFO
}

func (p *fifoPolicy) Name() string    { return "test-fcfs" }
func (p *fifoPolicy) Init(m *Machine) { p.m = m }
func (p *fifoPolicy) Arrive(r *Request) {
	for _, w := range p.m.Workers {
		if w.Idle() {
			p.m.Run(w, r)
			return
		}
	}
	p.q.Push(r)
}
func (p *fifoPolicy) WorkerFree(w *Worker) {
	if r := p.q.Pop(); r != nil {
		p.m.Run(w, r)
	}
}

func newTestMachine(workers int) (*sim.Sim, *Machine, *metrics.Recorder) {
	s := sim.New()
	rec := metrics.NewRecorder(2, []string{"a", "b"})
	m := NewMachine(s, workers, &fifoPolicy{}, rec)
	return s, m, rec
}

func TestSingleRequestLifecycle(t *testing.T) {
	s, m, rec := newTestMachine(1)
	m.Arrive(0, 10*time.Microsecond)
	s.Run()
	if m.Completed() != 1 || m.InFlight() != 0 {
		t.Fatalf("completed %d inflight %d", m.Completed(), m.InFlight())
	}
	if got := rec.Type(0).Latency.QuantileDuration(1); got != 10*time.Microsecond {
		t.Fatalf("latency %v, want exactly the service time", got)
	}
	if got := metrics.SlowdownAt(rec.Type(0), 1); got != 1 {
		t.Fatalf("slowdown %g, want 1", got)
	}
}

func TestQueueingBehindRequest(t *testing.T) {
	s, m, rec := newTestMachine(1)
	m.Arrive(0, 10*time.Microsecond)
	m.Arrive(1, 10*time.Microsecond) // same instant, queues
	s.Run()
	if m.Completed() != 2 {
		t.Fatalf("completed %d", m.Completed())
	}
	// Second request waited 10µs then ran 10µs.
	if got := rec.Type(1).Latency.QuantileDuration(1); got < 19*time.Microsecond || got > 21*time.Microsecond {
		t.Fatalf("queued latency %v, want ~20µs", got)
	}
	if got := rec.Type(1).QueueDelay.QuantileDuration(1); got < 9*time.Microsecond || got > 11*time.Microsecond {
		t.Fatalf("queue delay %v, want ~10µs", got)
	}
}

func TestParallelWorkers(t *testing.T) {
	s, m, _ := newTestMachine(4)
	for i := 0; i < 4; i++ {
		m.Arrive(0, 10*time.Microsecond)
	}
	s.Run()
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("4 workers should finish 4 requests in parallel at 10µs, got %v", s.Now())
	}
}

func TestUtilization(t *testing.T) {
	s, m, _ := newTestMachine(2)
	m.Arrive(0, 10*time.Microsecond)
	s.RunUntil(20 * time.Microsecond)
	// One worker busy 10 of 20µs, the other idle: 25% machine-wide.
	if got := m.Utilization(); got < 0.24 || got > 0.26 {
		t.Fatalf("utilization %g, want 0.25", got)
	}
	if got := m.WorkerUtilization(0); got < 0.49 || got > 0.51 {
		t.Fatalf("worker 0 utilization %g, want 0.5", got)
	}
	if got := m.WorkerUtilization(1); got != 0 {
		t.Fatalf("worker 1 utilization %g, want 0", got)
	}
}

func TestOverheadCountsAsBusy(t *testing.T) {
	s, m, _ := newTestMachine(1)
	done := false
	m.Overhead(m.Workers[0], 5*time.Microsecond, nil, func(*Worker, *Request) { done = true })
	s.RunUntil(10 * time.Microsecond)
	if !done {
		t.Fatal("overhead continuation not invoked")
	}
	if got := m.WorkerUtilization(0); got < 0.49 || got > 0.51 {
		t.Fatalf("overhead busy fraction %g, want 0.5", got)
	}
}

func TestOverheadZeroImmediate(t *testing.T) {
	_, m, _ := newTestMachine(1)
	ran := false
	m.Overhead(m.Workers[0], 0, nil, func(*Worker, *Request) { ran = true })
	if !ran {
		t.Fatal("zero overhead deferred")
	}
}

func TestRunSliceCompletesShortRequest(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(1, nil)
	var pol slicePolicy
	m := NewMachine(s, 1, &pol, rec)
	pol.m = m
	m.Arrive(0, 3*time.Microsecond) // shorter than the 5µs quantum
	s.Run()
	if m.Completed() != 1 {
		t.Fatal("short request did not complete in one slice")
	}
	if pol.sliceEnds != 0 {
		t.Fatalf("%d slice-end callbacks for a within-quantum request", pol.sliceEnds)
	}
}

// slicePolicy runs everything with RunSlice and requeues on slice end.
type slicePolicy struct {
	m         *Machine
	q         FIFO
	sliceEnds int
}

func (p *slicePolicy) Name() string    { return "test-slice" }
func (p *slicePolicy) Init(m *Machine) { p.m = m }
func (p *slicePolicy) Arrive(r *Request) {
	if w := p.m.Workers[0]; w.Idle() {
		p.start(w, r)
		return
	}
	p.q.Push(r)
}
func (p *slicePolicy) start(w *Worker, r *Request) {
	p.m.RunSlice(w, r, 5*time.Microsecond, func(w *Worker, r *Request) {
		p.sliceEnds++
		r.Preemptions++
		p.q.Push(r)
		p.WorkerFree(w)
	})
}
func (p *slicePolicy) WorkerFree(w *Worker) {
	if r := p.q.Pop(); r != nil {
		p.start(w, r)
	}
}

func TestRunSlicePreemptsLongRequest(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(1, nil)
	var pol slicePolicy
	m := NewMachine(s, 1, &pol, rec)
	m.Arrive(0, 12*time.Microsecond) // needs 3 slices of 5µs
	s.Run()
	if m.Completed() != 1 {
		t.Fatal("request did not complete")
	}
	if pol.sliceEnds != 2 {
		t.Fatalf("slice ends %d, want 2", pol.sliceEnds)
	}
	if got := rec.Type(0).Preemptions; got != 2 {
		t.Fatalf("recorded preemptions %d, want 2", got)
	}
	if s.Now() != 12*time.Microsecond {
		t.Fatalf("completion at %v, want 12µs (no overhead charged)", s.Now())
	}
}

func TestRunPreemptibleInterrupt(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(1, nil)
	pol := &fifoPolicy{}
	m := NewMachine(s, 1, pol, rec)
	r := m.Arrive(0, 100*time.Microsecond)
	// fifoPolicy used Run; drain and restart manually for this test.
	s = m.Sim
	_ = r
	// Build a fresh machine driven manually instead.
	s2 := sim.New()
	m2 := NewMachine(s2, 1, &manualPolicy{}, rec)
	req := &Request{ID: 1, Type: 0, Service: 100 * time.Microsecond, Remaining: 100 * time.Microsecond, Arrival: 0, FirstDispatch: -1}
	h := m2.RunPreemptible(m2.Workers[0], req)
	s2.After(30*time.Microsecond, func() {
		if !m2.Interrupt(h) {
			t.Error("interrupt failed while running")
		}
	})
	s2.Run()
	if req.Remaining != 70*time.Microsecond {
		t.Fatalf("remaining %v, want 70µs", req.Remaining)
	}
	if !m2.Workers[0].Idle() {
		t.Fatal("worker not idle after interrupt")
	}
	if h.Done() != true {
		t.Fatal("handle not done after interrupt")
	}
	if m2.Interrupt(h) {
		t.Fatal("double interrupt succeeded")
	}
}

type manualPolicy struct{ m *Machine }

func (p *manualPolicy) Name() string         { return "manual" }
func (p *manualPolicy) Init(m *Machine)      { p.m = m }
func (p *manualPolicy) Arrive(r *Request)    {}
func (p *manualPolicy) WorkerFree(w *Worker) {}

func TestRunPreemptibleCompletesNormally(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(1, nil)
	m := NewMachine(s, 1, &manualPolicy{}, rec)
	req := &Request{ID: 1, Service: 10 * time.Microsecond, Remaining: 10 * time.Microsecond, FirstDispatch: -1}
	h := m.RunPreemptible(m.Workers[0], req)
	s.Run()
	if !h.Done() || m.Completed() != 1 {
		t.Fatal("preemptible run did not complete")
	}
	if m.Interrupt(h) {
		t.Fatal("interrupt after completion succeeded")
	}
}

func TestDispatchToBusyWorkerPanics(t *testing.T) {
	s := sim.New()
	m := NewMachine(s, 1, &manualPolicy{}, nil)
	r1 := &Request{Service: 10, Remaining: 10, FirstDispatch: -1}
	r2 := &Request{Service: 10, Remaining: 10, FirstDispatch: -1}
	m.Run(m.Workers[0], r1)
	defer func() {
		if recover() == nil {
			t.Fatal("double dispatch did not panic")
		}
	}()
	m.Run(m.Workers[0], r2)
}

func TestRecordDrop(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(1, nil)
	m := NewMachine(s, 1, &manualPolicy{}, rec)
	m.Arrive(0, time.Microsecond) // manualPolicy ignores it
	m.RecordDrop(&Request{Type: 0})
	if m.Dropped() != 1 || rec.All().Dropped != 1 {
		t.Fatal("drop not recorded")
	}
}

type observingPolicy struct {
	manualPolicy
	completed []*Request
}

func (p *observingPolicy) Completed(w *Worker, r *Request) {
	p.completed = append(p.completed, r)
}

func TestCompletionObserver(t *testing.T) {
	s := sim.New()
	pol := &observingPolicy{}
	m := NewMachine(s, 1, pol, nil)
	r := &Request{Service: 5, Remaining: 5, FirstDispatch: -1}
	m.Run(m.Workers[0], r)
	s.Run()
	if len(pol.completed) != 1 || pol.completed[0] != r {
		t.Fatal("completion observer not invoked")
	}
}
