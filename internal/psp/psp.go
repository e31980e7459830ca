// Package psp is the live Perséphone runtime: a real, runnable
// implementation of the paper's §4 architecture on goroutines instead
// of DPDK threads. A net worker (or in-process submitters) feeds an
// ingress ring; a single dispatcher goroutine classifies requests with
// a user-provided classifier, parks them in typed queues, and runs
// DARC (the scheduling core and controller the simulator uses too,
// internal/sched and internal/darc) to push work to application
// workers over single-producer/single-consumer rings;
// workers execute the application handler, transmit the response
// themselves, and signal completion back to the dispatcher.
//
// Absolute latencies are dominated by the Go runtime (see DESIGN.md);
// the package demonstrates the mechanism end-to-end, while the paper's
// quantitative figures are reproduced on the simulator.
package psp

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/classify"
	"repro/internal/darc"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/spsc"
	"repro/internal/trace"
)

const (
	// ingressCap bounds the ingress ring and the completion ring.
	ingressCap = 8192
	// responseBuf is each worker's response scratch size.
	responseBuf = 2048
)

// Response is the completion of one request as seen by the submitter.
// Responses returned by Submit/Call own their Payload; inside an
// egress's send the payload aliases the worker's scratch buffer and
// must be serialized or copied before send returns.
type Response struct {
	RequestID uint64
	Type      int
	Status    proto.Status
	Payload   []byte
	// Sojourn is the server-side time from ingress to the end of
	// service (the reply is sent after it is measured).
	Sojourn time.Duration
	// QueueDelay is the ingress-to-worker-start wait (0 for drops).
	QueueDelay time.Duration
	// Service is the measured handler execution time (0 for drops).
	Service time.Duration
	// RetryAfter is the admission controller's backoff hint, set only
	// on StatusOverloaded NACKs. The response encoder serializes it
	// as a retry-after trailer; clients back off at least this long
	// before retrying.
	RetryAfter time.Duration
}

// Request is the unit flowing through the pipeline.
//
// out is sent the response exactly once, synchronously, from the
// goroutine that settles the request (a worker, or the dispatcher on
// the shed and drop paths); see reply.
type Request struct {
	id      uint64
	typ     int
	payload []byte
	arrival time.Duration // since server start
	out     egress
	buf     *spsc.Buffer // network mode: owning ingress buffer

	// Network mode: what the response echoes and where it goes.
	wireID  uint64            // the client's RequestID
	corr    proto.Correlation // echoed when hasCorr
	hasCorr bool
	peer    *net.UDPAddr // datagram reply address; nil on a stream

	// Lifecycle stamps (offsets since server start), filled as the
	// request crosses each stage; the worker completes the record and
	// publishes it as a trace.Span. The dispatcher reads the clock once
	// after classification, so enqueued is the classified stamp too.
	enqueued   time.Duration
	dispatched time.Duration

	// admitted marks a request the admission controller has counted as
	// accepted; the drop path books such requests as shed-lost so the
	// per-type conservation identity stays exact under crashes and
	// shutdown drains.
	admitted bool
}

// Handler executes application logic for a request. Implementations
// run on worker goroutines concurrently; resp is a scratch buffer the
// handler may fill with the response payload.
type Handler interface {
	Handle(typ int, payload []byte, resp []byte) (n int, status proto.Status)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(typ int, payload []byte, resp []byte) (int, proto.Status)

// Handle implements Handler.
func (f HandlerFunc) Handle(typ int, payload []byte, resp []byte) (int, proto.Status) {
	return f(typ, payload, resp)
}

// Config assembles a Server.
type Config struct {
	// Workers is the number of application worker goroutines.
	Workers int
	// Classifier types incoming payloads (required).
	Classifier classify.Classifier
	// Handler executes requests (required).
	Handler Handler
	// Policy selects the scheduling policy (zero value: DARC); only the
	// kinds with a live form run (DARC, c-FCFS, d-FCFS, DARC-static).
	// DARC-static reserves Policy.StaticReserved workers for the
	// shortest type; d-FCFS steers arrivals from Policy.SteerSeed (0
	// uses a fixed default) so runs are reproducible.
	Policy sched.Spec
	// StaticMeans gives DARC-static its per-type service times (index =
	// type ID); the type with the smallest mean is the "short" type the
	// reservation protects. Required under DARC-static, ignored
	// otherwise.
	StaticMeans []time.Duration
	// DARC tunes the controller; zero value uses defaults with
	// MinWindowSamples lowered to 512 (live runs are shorter than the
	// paper's 50k-sample windows).
	DARC darc.Config
	// QueueCap bounds each typed queue (default 4096).
	QueueCap int
	// Admission enables the deadline-aware overload controller: per
	// request type an admission budget (explicit or auto-derived from
	// the DARC profiler's service-time estimates) bounds queue delay,
	// with budget violations shed at enqueue and dispatch, and
	// sustained overload trimming queues in reverse-reservation order.
	// Nil disables admission control entirely (legacy behaviour:
	// queues grow to QueueCap and overflow is answered StatusDropped).
	Admission *admission.Config
	// Faults optionally injects infrastructure misbehaviour — ingress
	// packet drop/duplication, worker stalls, slowdowns and
	// crash-respawns, delayed reservation updates — for chaos testing.
	// Nil disables injection.
	Faults *faults.Profile
	// TraceCap sets each worker's lifecycle span ring capacity
	// (default 4096, rounded up to a power of two). Negative disables
	// lifecycle tracing entirely; zero keeps the default — tracing is
	// on by default and costs nothing beyond timestamps when unread.
	TraceCap int
	// TraceSink, when non-nil, receives every span drained by
	// FlushTrace (called under the drain lock, so invocations are
	// serialized). SetTraceSink installs one after construction.
	TraceSink func(trace.Span)
}

// Server is the live runtime instance.
type Server struct {
	cfg      Config
	ctl      *darc.Controller
	adm      *admission.Controller // nil when admission is disabled
	ingress  *spsc.MPSC[*Request]
	rings    []*spsc.Ring[*Request]
	compRing *spsc.MPSC[completion]
	// park is where the dispatcher sleeps when a pass finds nothing to
	// do. Everything that gives it something to do publishes and then
	// wakes it: Submit/injectBatch (ingress), putCompletion, the
	// Reconfigure enqueue, and Stop.
	park *spsc.Parker

	// core owns the typed, UNKNOWN and d-FCFS queues, the free-worker
	// set, the mode and the active-pool bound, and makes every dispatch
	// decision (dispatcher-only). rings and retiring keep the pool's
	// historical maximum length; modeA and activeA mirror the core's
	// mode and pool size for cross-goroutine snapshots.
	core     *sched.Core[*Request]
	modeA    atomic.Int64
	activeA  atomic.Int64
	retiring []bool // worker is draining out of a shrunk pool

	// Reconfiguration control plane: ops queue under rcMu (rcPending
	// mirrors its length so the dispatcher's hot loop checks one
	// atomic), at most one op in flight at a time (pendingOp while a
	// shrink waits on retiring workers).
	rcMu      sync.Mutex
	rcOps     []*reconfigOp
	rcClosed  bool
	rcPending atomic.Int32
	pendingOp *reconfigOp

	// Reconfiguration telemetry (persephone_reconfig_* families).
	generation     atomic.Uint64
	rcApplied      atomic.Uint64
	rcRejected     atomic.Uint64
	rcPolicySwaps  atomic.Uint64
	rcResizes      atomic.Uint64
	rcMigrated     atomic.Uint64
	rcMigratedShed atomic.Uint64
	rcLastDrainNs  atomic.Int64

	// steer is d-FCFS's xorshift steering state (dispatcher-only).
	steer uint64

	start   time.Time
	nextID  atomic.Uint64
	started atomic.Bool
	stopped atomic.Bool
	wg      sync.WaitGroup

	inj           *faults.Injector
	restarts      atomic.Uint64
	retriesSeen   atomic.Uint64
	resvHoldUntil time.Duration // dispatcher-only: pending delayed update

	// tcpSrv is the TCP transport bound to this server (if any); the
	// metrics exposition pulls the persephone_tcp_* families from it.
	tcpSrv atomic.Pointer[TCPServer]

	// enqueued and dispatched are written only by the dispatcher; they
	// are atomics so the hand-off path takes no lock. mu guards the
	// recorder and dropped, which workers reach through drop.
	enqueued   atomic.Uint64
	dispatched atomic.Uint64
	mu         sync.Mutex
	rec        *metrics.Recorder
	dropped    uint64
	// booked holds the completions one drain of compRing took, recorded
	// under a single acquisition of mu (dispatcher-only).
	booked []completion

	// Lifecycle tracing: each worker publishes completed-request spans
	// into its own fixed-capacity SPSC ring; the stats path drains them
	// under traceMu into per-type histograms (and the optional sink),
	// so the hot path never allocates or takes a lock for tracing.
	traceRings  []*spsc.Ring[trace.Span]
	traceCap    int // per-ring span capacity, for rings added on grow
	traceLost   atomic.Uint64
	traceMu     sync.Mutex
	traceSink   func(trace.Span)
	spanCount   uint64
	queueDelayH []metrics.Histogram // per type, last entry = unknown
	serviceH    []metrics.Histogram
	typeNames   []string // per type, last entry = "unknown"
}

// completion is a worker's report to the dispatcher. Its instants are
// the worker's own clock readings (and the request's arrival stamp),
// so booking it reads no clock.
type completion struct {
	worker  int
	typ     int
	service time.Duration
	arrival time.Duration
	started time.Duration
	replied time.Duration
	// respawn marks a crashed worker coming back to life: the slot is
	// freed without feeding the profiler.
	respawn bool
}

// NewServer validates the configuration and builds a stopped server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("psp: config needs Workers > 0")
	}
	if cfg.Classifier == nil {
		return nil, errors.New("psp: config needs a Classifier")
	}
	if cfg.Handler == nil {
		return nil, errors.New("psp: config needs a Handler")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	dcfg := cfg.DARC
	if dcfg.Workers == 0 {
		dcfg = darc.DefaultConfig(cfg.Workers)
		dcfg.MinWindowSamples = 512
	}
	dcfg.Workers = cfg.Workers
	if dcfg.Spillway >= cfg.Workers {
		dcfg.Spillway = 0
	}
	numTypes := cfg.Classifier.NumTypes()
	if numTypes <= 0 {
		return nil, fmt.Errorf("psp: classifier %q declares %d types", cfg.Classifier.Name(), numTypes)
	}
	mode, err := cfg.Policy.Mode()
	if err != nil {
		return nil, err
	}
	if mode == sched.DARCStatic {
		if len(cfg.StaticMeans) != numTypes {
			return nil, fmt.Errorf("psp: DARC-static needs %d StaticMeans, got %d", numTypes, len(cfg.StaticMeans))
		}
		if r := cfg.Policy.StaticReserved; r < 0 || r > cfg.Workers {
			return nil, fmt.Errorf("psp: DARC-static reserved %d out of range for %d workers", r, cfg.Workers)
		}
	}
	ctl, err := darc.NewController(dcfg, numTypes)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		inj = faults.New(*cfg.Faults, cfg.Workers)
	}
	var adm *admission.Controller
	if cfg.Admission != nil {
		adm = admission.New(*cfg.Admission, numTypes, ctl.MeanService)
	}
	s := &Server{
		cfg:      cfg,
		ctl:      ctl,
		adm:      adm,
		inj:      inj,
		ingress:  spsc.NewMPSC[*Request](ingressCap),
		compRing: spsc.NewMPSC[completion](ingressCap),
		park:     spsc.NewParker(),
		rec:      metrics.NewRecorder(numTypes, nil),
	}
	s.core = sched.New(sched.Config[*Request]{
		Mode:           mode,
		NumTypes:       numTypes,
		Workers:        cfg.Workers,
		QueueCap:       cfg.QueueCap,
		Controller:     ctl,
		StaticMeans:    cfg.StaticMeans,
		StaticReserved: cfg.Policy.StaticReserved,
		Arrival:        func(r *Request) time.Duration { return r.arrival },
		Type:           func(r *Request) int { return r.typ },
		Take:           s.take,
		Steer:          s.steerNext,
	})
	s.modeA.Store(int64(mode))
	s.activeA.Store(int64(cfg.Workers))
	s.retiring = make([]bool, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.rings = append(s.rings, spsc.NewRing[*Request](8))
	}
	s.steer = cfg.Policy.SteerSeed
	if s.steer == 0 {
		s.steer = 0x9E3779B97F4A7C15
	}
	if cfg.TraceCap >= 0 {
		capSpans := cfg.TraceCap
		if capSpans == 0 {
			capSpans = 4096
		}
		s.traceCap = capSpans
		s.traceRings = make([]*spsc.Ring[trace.Span], cfg.Workers)
		for i := range s.traceRings {
			s.traceRings[i] = spsc.NewRing[trace.Span](capSpans)
		}
		s.queueDelayH = make([]metrics.Histogram, numTypes+1)
		s.serviceH = make([]metrics.Histogram, numTypes+1)
		s.typeNames = append(s.rec.TypeNames(), "unknown")
		s.traceSink = cfg.TraceSink
	}
	return s, nil
}

// Start launches the dispatcher and worker goroutines.
func (s *Server) Start() {
	s.start = time.Now()
	s.started.Store(true)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop(i, s.rings[i], s.traceRingFor(i))
	}
	s.wg.Add(1)
	go s.dispatcherLoop()
}

// traceRingFor returns worker w's span ring (nil when tracing is off).
func (s *Server) traceRingFor(w int) *spsc.Ring[trace.Span] {
	if s.traceRings == nil || w >= len(s.traceRings) {
		return nil
	}
	return s.traceRings[w]
}

// Stop shuts the pipeline down and waits for goroutines to exit.
// In-flight requests are completed; queued requests are answered with
// StatusDropped.
func (s *Server) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	s.park.Wake()
	s.wg.Wait()
	// Workers are gone: whatever spans they published are final.
	s.FlushTrace()
}

// Controller exposes the DARC controller (reservation snapshots,
// update counts).
func (s *Server) Controller() *darc.Controller { return s.ctl }

// Injector exposes the fault injector (nil when no fault profile is
// configured; the nil injector injects nothing).
func (s *Server) Injector() *faults.Injector { return s.inj }

// Admission exposes the admission controller (nil when admission
// control is disabled).
func (s *Server) Admission() *admission.Controller { return s.adm }

// noteRetry counts a client retransmission observed at ingress
// (requests whose header carries a non-zero attempt number).
func (s *Server) noteRetry() { s.retriesSeen.Add(1) }

// now reports the time since server start (the recorder's clock).
func (s *Server) now() time.Duration { return time.Since(s.start) }

// Submit injects a request in-process and returns a channel carrying
// its single response. It fails if the server is stopped or the
// ingress ring is full (open-loop backpressure).
func (s *Server) Submit(payload []byte) (<-chan Response, error) {
	if s.stopped.Load() {
		return nil, ErrServerStopped
	}
	ch := make(chan Response, 1)
	r := &Request{
		id:      s.nextID.Add(1),
		payload: payload,
		arrival: s.now(),
		out:     replyChan(ch),
	}
	if !s.ingress.TryPut(r) {
		return nil, fmt.Errorf("psp: ingress ring full: %w", ErrPoolExhausted)
	}
	s.park.Wake()
	return ch, nil
}

// Call is Submit plus waiting for the response. A response shed by
// admission control is returned alongside ErrOverloaded (the Response
// still carries the RetryAfter hint).
func (s *Server) Call(payload []byte) (Response, error) {
	ch, err := s.Submit(payload)
	if err != nil {
		return Response{}, err
	}
	resp := <-ch
	if resp.Status == proto.StatusOverloaded {
		return resp, ErrOverloaded
	}
	return resp, nil
}

// injectBatch places a burst of externally built requests on the
// ingress ring, amortizing the arrival timestamp, the ID allocation
// (one atomic add for the burst) and the ring synchronization (one
// head reservation) across the batch. It returns how many requests
// were accepted — always a prefix of batch; the caller owns the
// rejected tail (and its buffers).
func (s *Server) injectBatch(batch []*Request) int {
	if s.stopped.Load() || len(batch) == 0 {
		return 0
	}
	now := s.now()
	base := s.nextID.Add(uint64(len(batch))) - uint64(len(batch))
	for i, r := range batch {
		r.id = base + uint64(i) + 1
		r.arrival = now
	}
	n := s.ingress.TryPutBatch(batch)
	s.park.Wake()
	return n
}

// dispatcherLoop is the single thread of control for classification,
// typed queues, DARC and worker handoff.
func (s *Server) dispatcherLoop() {
	defer s.wg.Done()
	for {
		progress := false
		// 0. Control plane: begin the next reconfiguration, one at a
		// time — an op waiting on retiring workers blocks later ops so
		// every spec applies against a settled pool.
		if s.pendingOp == nil && s.rcPending.Load() > 0 {
			s.beginOp(s.takeOp())
			progress = true
		}
		// 1. Completions: free workers and feed the profiler.
		for {
			c, ok := s.compRing.TryGet()
			if !ok {
				break
			}
			progress = true
			if !c.respawn {
				s.ctl.Observe(c.typ, c.service)
				if s.adm != nil {
					s.adm.NoteCompleted(c.typ)
				}
				if s.core.Mode() == sched.DARC {
					s.maybeUpdateReservation()
				}
				s.booked = append(s.booked, c)
			}
			s.core.Release(c.worker)
			if s.retiring[c.worker] {
				// A retiring worker's final act: its completion (real
				// or respawn) is booked above, then the slot gets its
				// shutdown sentinel; the core's active bound keeps the
				// freed slot out of dispatch. The goroutine exits on
				// consuming the sentinel.
				s.retiring[c.worker] = false
				s.rings[c.worker].Put(nil)
				if s.pendingOp != nil {
					s.pendingOp.retireLeft--
				}
			}
		}
		s.record()
		// 1b. A pending shrink completes once its last retiree drained.
		if op := s.pendingOp; op != nil && op.retireLeft == 0 {
			s.finishOp(op)
			progress = true
		}
		// 2. Ingress: classify and enqueue.
		for {
			r, ok := s.ingress.TryGet()
			if !ok {
				break
			}
			progress = true
			r.typ = s.cfg.Classifier.Classify(r.payload)
			s.enqueue(r, s.now())
		}
		// 2b. Sustained overload (queue-delay EWMA above threshold):
		// shed queued work in reverse-reservation order — the unknown
		// spillway first, then typed queues from the longest profiled
		// mean down to the shortest — so short-type reservations are
		// the last thing sacrificed (DESIGN.md §9).
		if s.adm != nil && s.adm.Overloaded() && s.shedOverloaded() {
			progress = true
		}
		// 3. Dispatch: the core pairs queue heads with idle workers and
		// take hands them over.
		if s.core.Dispatch() {
			progress = true
		}
		if s.stopped.Load() {
			s.drainAndShutdown()
			return
		}
		if progress {
			s.park.Busy()
		} else {
			s.park.Idle()
		}
	}
}

// maybeUpdateReservation runs the DARC update check, holding it back
// by the injected reservation delay when a chaos profile asks for a
// laggy control plane. Dispatcher-only.
func (s *Server) maybeUpdateReservation() {
	d := s.inj.ReservationDelay()
	if d <= 0 {
		s.ctl.MaybeUpdate()
		return
	}
	now := s.now()
	if s.resvHoldUntil == 0 {
		s.resvHoldUntil = now + d
		return
	}
	if now >= s.resvHoldUntil {
		s.ctl.MaybeUpdate()
		s.resvHoldUntil = 0
	}
}

// enqueue admits a classified request to its queue. now is the
// dispatcher's one clock reading after classification: it stamps the
// request classified and enqueued and is the instant the admission
// check measures the wait to.
func (s *Server) enqueue(r *Request, now time.Duration) {
	r.enqueued = now
	if s.adm != nil {
		// Every classified request enters the admission ledger before
		// any check can refuse it, so the per-type identity
		// accepted == completed + shed_deadline + shed_overload (+ lost)
		// is exact by construction.
		s.adm.NoteAccepted(r.typ)
		r.admitted = true
		if waited := now - r.arrival; s.adm.ExceedsBudget(r.typ, waited) {
			s.adm.ObserveQueueDelay(waited)
			s.shed(r, admission.ShedDeadline)
			return
		}
	}
	if !s.core.Push(r.typ, r) {
		if s.adm != nil {
			// With admission enabled a full queue is an overload
			// signal, not a silent drop: the client gets a NACK with a
			// retry-after hint instead of StatusDropped.
			s.shed(r, admission.ShedOverload)
			return
		}
		s.drop(r)
		return
	}
	s.enqueued.Add(1)
}

// steerNext draws the next d-FCFS worker in [0, n) from a seeded
// xorshift64 stream (dispatcher-only, deterministic per SteerSeed).
// d-FCFS steers each arrival to one worker's private queue, type
// notwithstanding: RSS hashes flows, not request types.
func (s *Server) steerNext(n int) int {
	x := s.steer
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.steer = x
	return int(x % uint64(n))
}

// shed refuses a request under admission control: the submitter gets
// a typed NACK (StatusOverloaded) carrying the controller's
// retry-after hint, and the refusal is booked under its reason.
// Sheds are intentionally not counted in the legacy dropped counter
// or the recorder's drop families — they are a distinct, accounted
// outcome with their own persephone_admission_* metrics.
func (s *Server) shed(r *Request, reason admission.ShedReason) {
	s.adm.NoteShed(r.typ, reason)
	r.reply(Response{
		RequestID:  r.id,
		Type:       r.typ,
		Status:     proto.StatusOverloaded,
		RetryAfter: s.adm.RetryAfter(),
	})
}

// shedOverloaded is the reverse-reservation overload trim: drain the
// unknown spillway entirely, then cut each typed queue — longest
// profiled mean first — down to the backlog its admission budget can
// absorb. Short types (the head of DispatchOrder) are trimmed last
// and always keep at least one queued request. d-FCFS worker queues
// are exempt (deadline shedding still applies at dispatch): with
// per-worker steering there is no central queue whose order encodes
// reservations to protect.
func (s *Server) shedOverloaded() bool {
	shedAny := false
	for q := s.core.Unknown(); !q.Empty(); {
		s.shed(q.Pop(), admission.ShedOverload)
		shedAny = true
	}
	order := s.ctl.DispatchOrder() // ascending profiled mean
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		q := s.core.Typed(t)
		keep := s.adm.BacklogCap(t)
		for q.Len() > keep {
			s.shed(q.Pop(), admission.ShedOverload)
			shedAny = true
		}
	}
	return shedAny
}

// take is the core's hand-off: it pops q's head for worker w, shedding
// heads whose queue delay outran their admission budget while they
// waited, and hands w the first admissible request. It reports false
// if q drained without one.
func (s *Server) take(q *sched.FIFO[*Request], w int) bool {
	for !q.Empty() {
		r := q.Pop()
		if s.adm != nil {
			if waited := s.now() - r.arrival; s.adm.ExceedsBudget(r.typ, waited) {
				s.adm.ObserveQueueDelay(waited)
				s.shed(r, admission.ShedDeadline)
				continue
			}
		}
		s.handoff(w, r)
		return true
	}
	return false
}

func (s *Server) drop(r *Request) {
	if r.admitted {
		// An accepted request that dies without a worker completion
		// (crash, shutdown drain) still closes its admission ledger
		// entry, as shed-lost.
		s.adm.NoteShed(r.typ, admission.ShedLost)
	}
	s.mu.Lock()
	s.dropped++
	s.rec.Drop(r.typ, r.arrival)
	s.mu.Unlock()
	r.reply(Response{RequestID: r.id, Type: r.typ, Status: proto.StatusDropped})
}

// reply settles r: it sends the response, if anyone waits for it, and
// then releases r's ingress buffer unless the egress took it (the
// zero-copy path reuses the buffer for the outgoing frame and nils the
// field). resp.Payload may alias a worker's scratch buffer; the egress
// serializes or copies it before returning.
func (r *Request) reply(resp Response) {
	if r.out != nil {
		r.out.send(r, resp)
	}
	if r.buf != nil {
		r.buf.Release()
	}
}

// record books the completions one drain of compRing took into the
// recorder, under one acquisition of mu. Dispatcher-only.
func (s *Server) record() {
	if len(s.booked) == 0 {
		return
	}
	s.mu.Lock()
	for _, c := range s.booked {
		s.rec.Complete(c.typ, c.arrival, c.replied, c.service, c.started, 0)
	}
	s.mu.Unlock()
	s.booked = s.booked[:0]
}

// handoff gives r to worker w. The dispatched stamp is a reading of
// its own for every hand-off: conformance orders spans by it.
func (s *Server) handoff(w int, r *Request) {
	r.dispatched = s.now()
	delay := r.dispatched - r.arrival
	s.ctl.NoteQueueDelay(r.typ, delay)
	if s.adm != nil {
		s.adm.ObserveQueueDelay(delay)
	}
	s.dispatched.Add(1)
	s.rings[w].Put(r)
}

// drainAndShutdown answers queued requests with drops and unblocks
// workers with sentinels. Pending and queued reconfigurations fail
// with ErrServerStopped so no Reconfigure caller is left hanging.
func (s *Server) drainAndShutdown() {
	s.rcMu.Lock()
	s.rcClosed = true
	ops := s.rcOps
	s.rcOps = nil
	s.rcPending.Store(0)
	s.rcMu.Unlock()
	if op := s.pendingOp; op != nil {
		s.pendingOp = nil
		op.err = ErrServerStopped
		close(op.done)
	}
	for _, op := range ops {
		op.err = ErrServerStopped
		close(op.done)
	}
	for {
		r, ok := s.ingress.TryGet()
		if !ok {
			break
		}
		r.typ = classify.Unknown
		s.drop(r)
	}
	s.core.Drain(s.drop)
	for _, ring := range s.rings {
		ring.Put(nil) // shutdown sentinel
	}
}

// workerLoop executes requests and transmits responses directly (the
// paper's workers own TX). The request and span rings are passed by
// value: a slot reactivated after retirement gets a fresh request
// ring, and binding the pair at spawn keeps the SPSC single-consumer
// discipline even while the previous tenant is still consuming its
// own sentinel.
func (s *Server) workerLoop(id int, ring *spsc.Ring[*Request], traceRing *spsc.Ring[trace.Span]) {
	defer s.wg.Done()
	scratch := make([]byte, responseBuf)
	for {
		r := ring.Get()
		if r == nil {
			return // shutdown sentinel
		}
		if d := s.inj.WorkerStall(id); d > 0 {
			time.Sleep(d)
		}
		if s.inj.WorkerCrash(id) {
			// The worker dies mid-request: the request is answered as
			// dropped (a reset, from the client's view), the slot stays
			// busy until a replacement respawns, and this goroutine
			// exits.
			s.drop(r)
			s.restarts.Add(1)
			s.wg.Add(1)
			go s.respawnWorker(id, ring, traceRing)
			return
		}
		// Three clock readings per request — started, finished, replied —
		// and everything the response, the span and the completion
		// report is derived from them.
		started := s.now()
		n, status := s.cfg.Handler.Handle(r.typ, r.payload, scratch)
		finished := s.now()
		service := finished - started
		if extra := s.inj.WorkerSlowdown(id, service); extra > 0 {
			time.Sleep(extra)
			service += extra
			finished = s.now()
		}
		if n < 0 {
			n = 0
		}
		if n > len(scratch) {
			n = len(scratch)
		}
		// Payload aliases the worker's scratch buffer: the egress
		// either serializes it onto the wire before returning (the
		// network lanes) or copies it (Submit). This keeps the transmit
		// path allocation-free.
		r.reply(Response{
			RequestID:  r.id,
			Type:       r.typ,
			Status:     status,
			Payload:    scratch[:n],
			Sojourn:    finished - r.arrival,
			QueueDelay: started - r.arrival,
			Service:    service,
		})
		replied := s.now()
		s.traceSpan(traceRing, id, r, started, finished, replied)
		s.putCompletion(completion{
			worker:  id,
			typ:     r.typ,
			service: service,
			arrival: r.arrival,
			started: started,
			replied: replied,
		})
	}
}

// respawnWorker brings a crashed worker slot back after the injected
// respawn delay. The replacement announces itself with a respawn
// completion so the dispatcher frees the slot only once the worker is
// actually consuming its ring again. It inherits the crashed tenant's
// rings: the slot was never retired, so the consumer seat is vacant.
func (s *Server) respawnWorker(id int, ring *spsc.Ring[*Request], traceRing *spsc.Ring[trace.Span]) {
	time.Sleep(s.inj.RespawnDelay())
	s.putCompletion(completion{worker: id, respawn: true})
	s.workerLoop(id, ring, traceRing)
}

// putCompletion delivers a completion to the dispatcher, yielding while
// the ring is momentarily full — losing one would leak the worker slot
// (the dispatcher would consider it busy forever).
func (s *Server) putCompletion(c completion) {
	for !s.compRing.TryPut(c) {
		runtime.Gosched()
	}
	s.park.Wake()
}

// Stats is a point-in-time snapshot of server metrics.
type Stats struct {
	Enqueued   uint64
	Dispatched uint64
	Dropped    uint64
	Updates    uint64
	// FaultsInjected counts faults created by the chaos layer (0
	// without a fault profile).
	FaultsInjected uint64
	// WorkerRestarts counts injected crash-then-respawn cycles.
	WorkerRestarts uint64
	// RetriesSeen counts client retransmissions observed at ingress.
	RetriesSeen uint64
	// TraceSpans counts lifecycle spans drained from worker rings.
	TraceSpans uint64
	// TraceLost counts spans dropped because a worker's trace ring was
	// full between drains.
	TraceLost uint64
	// Admission is the admission controller's ledger snapshot (nil
	// when admission control is disabled). Slots[NumTypes] is the
	// unknown/unclassified slot.
	Admission *admission.Stats
	Summaries []metrics.Summary
}

// StatsSnapshot copies the current counters and per-type summaries,
// draining any pending lifecycle spans first.
func (s *Server) StatsSnapshot() Stats {
	s.FlushTrace()
	spans, lost := s.traceCounts()
	var adm *admission.Stats
	if s.adm != nil {
		snap := s.adm.Snapshot()
		adm = &snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A queued request is counted enqueued before it can be dispatched
	// or dropped, so loading enqueued last keeps a snapshot taken
	// mid-run at enqueued >= dispatched + dropped.
	dispatched, dropped := s.dispatched.Load(), s.dropped
	enqueued := s.enqueued.Load()
	return Stats{
		Admission:      adm,
		Enqueued:       enqueued,
		Dispatched:     dispatched,
		Dropped:        dropped,
		Updates:        s.ctl.Updates(),
		FaultsInjected: s.inj.Total(),
		WorkerRestarts: s.restarts.Load(),
		RetriesSeen:    s.retriesSeen.Load(),
		TraceSpans:     spans,
		TraceLost:      lost,
		Summaries:      s.rec.Summarize(),
	}
}

// TypeSlowdown reports the p-quantile slowdown for one type.
func (s *Server) TypeSlowdown(typ int, q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.SlowdownAt(s.rec.Type(typ), q)
}
