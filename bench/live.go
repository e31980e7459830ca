package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	persephone "repro"
	"repro/internal/frontend"
	"repro/internal/proto"
)

// liveSpec is one live workload: the server under test, built through
// the public constructors with shipped defaults, and the load on it.
type liveSpec struct {
	name     string
	network  string           // "udp" or "tcp"
	frontend bool             // frontend.Listen in front of two backends built from this spec
	workers  int              // per backend
	cfcfs    bool             // c-FCFS in place of DARC
	types    int              // request types the classifier knows
	service  [2]time.Duration // handler sleep per type; zero replies at once

	// Open loop: Poisson arrivals on one socket, longShare of them type 1.
	openRate  float64
	longShare float64
	// Closed loop: conns connections, each with depth requests out.
	conns, depth int

	payload int   // request payload bytes; the handler echoes them
	warmup  int64 // replies seen before the first measured window
}

// nproc is 2 where this benchmark was calibrated; no workload uses more
// sending goroutines or connections than that.
var liveSpecs = map[string]liveSpec{
	wlHeavyTail: {
		name: wlHeavyTail, network: "udp", workers: 8, types: 2,
		service:  [2]time.Duration{2 * time.Millisecond, 32 * time.Millisecond},
		openRate: 1050, longShare: 0.10, payload: 8, warmup: 1000,
	},
	wlUDPEcho: {
		name: wlUDPEcho, network: "udp", workers: 2, types: 1,
		conns: 2, depth: 16, payload: 8, warmup: 20000,
	},
	wlTCPEcho: {
		name: wlTCPEcho, network: "tcp", workers: 2, types: 1, cfcfs: true,
		conns: 2, depth: 16, payload: 1024, warmup: 20000,
	},
	wlFrontend: {
		name: wlFrontend, network: "udp", frontend: true, workers: 2, types: 1,
		conns: 2, depth: 16, payload: 8, warmup: 10000,
	},
}

// openScheduleSpan is how much schedule an open-loop rig generates;
// set-up plus the longest run (60 s) fits with room to spare.
const openScheduleSpan = 90 * time.Second

// rig is one built and warmed-up workload: servers listening, clients
// running. It is measured once and shut down.
type rig struct {
	spec   liveSpec
	epoch  time.Time
	setup  time.Duration // start of construction → warm-up condition met
	traced bool

	backends []*persephone.LiveListener
	fe       *frontend.Frontend

	closed  []*closedClient
	open    *openClient
	stop    atomic.Bool  // closed loop: issue nothing new
	stopAt  atomic.Int64 // open loop: epoch offset after which nothing is due
	replies atomic.Int64
	wg      sync.WaitGroup
	errMu   sync.Mutex
	errs    []error

	// spans is filled by the servers' trace sink, which they call under
	// their drain lock; spansMu orders sinks of different backends.
	spansMu sync.Mutex
	spans   []persephone.TraceSpan
}

func (r *rig) fail(err error) {
	if err != nil {
		r.errMu.Lock()
		r.errs = append(r.errs, err)
		r.errMu.Unlock()
	}
}

func (r *rig) spawn(f func() error) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.fail(f())
	}()
}

// newRig builds the workload and returns once it is warm: warmup
// replies have been read and every DARC backend has installed its first
// reservation. Every input is drawn from rnd.
func newRig(spec liveSpec, rnd *rand.Rand, traced bool) (*rig, error) {
	r := &rig{spec: spec, epoch: time.Now(), traced: traced}
	if err := r.build(rnd); err != nil {
		r.shutdown() //nolint:errcheck // the build error is the one to report
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	return r, nil
}

func (r *rig) build(rnd *rand.Rand) error {
	spec := r.spec
	handler := persephone.HandlerFunc(func(typ int, payload, resp []byte) (int, proto.Status) {
		if typ >= 0 && typ < len(spec.service) && spec.service[typ] > 0 {
			preciseSleep(spec.service[typ])
		}
		return copy(resp, payload), proto.StatusOK
	})
	nBackends := 1
	if spec.frontend {
		nBackends = 2
	}
	for i := 0; i < nBackends; i++ {
		cfg := persephone.LiveConfig{
			Workers:    spec.workers,
			Classifier: persephone.FieldClassifier(0, spec.types),
			Handler:    handler,
			UseCFCFS:   spec.cfcfs,
		}
		if r.traced {
			cfg.TraceSink = func(sp persephone.TraceSpan) {
				r.spansMu.Lock()
				r.spans = append(r.spans, sp)
				r.spansMu.Unlock()
			}
		}
		l, err := persephone.Listen(spec.network, "127.0.0.1:0", cfg)
		if err != nil {
			return err
		}
		r.backends = append(r.backends, l)
	}
	target := r.backends[0].Addr().String()
	if spec.frontend {
		addrs := make([]string, len(r.backends))
		for i, b := range r.backends {
			addrs[i] = b.Addr().String()
		}
		fe, err := frontend.Listen("127.0.0.1:0", frontend.Config{Backends: addrs, FanOut: len(addrs)})
		if err != nil {
			return err
		}
		r.fe = fe
		target = fe.Addr().String()
	}

	if spec.openRate > 0 {
		sched := poissonSchedule(rnd, spec.openRate, spec.longShare, openScheduleSpan)
		payloads := payloadTable(rnd, len(sched), spec.payload)
		for i, a := range sched {
			payloads[i][0] = a.typ // little-endian type field, types < 256
		}
		w, err := dialUDP(target)
		if err != nil {
			return err
		}
		r.open = newOpenClient(w, sched, payloads, r.epoch, &r.stopAt, &r.replies)
		r.spawn(r.open.sender)
		r.spawn(r.open.receiver)
	} else {
		payloads := payloadTable(rnd, 4096, spec.payload)
		for i := 0; i < spec.conns; i++ {
			var w wire
			var err error
			if spec.network == "tcp" {
				w, err = dialTCP(target)
			} else {
				w, err = dialUDP(target)
			}
			if err != nil {
				return err
			}
			c := &closedClient{
				w: w, depth: spec.depth, payloads: payloads, epoch: r.epoch,
				stop: &r.stop, replies: &r.replies,
				samples: make([]sample, 0, 1<<18),
			}
			r.closed = append(r.closed, c)
			r.spawn(c.run)
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for !r.warm() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not warm after 15 s: %d of %d replies", r.replies.Load(), spec.warmup)
		}
		time.Sleep(time.Millisecond)
	}
	r.setup = time.Since(r.epoch)
	return nil
}

func (r *rig) warm() bool {
	if r.replies.Load() < r.spec.warmup {
		return false
	}
	if !r.spec.cfcfs {
		for _, b := range r.backends {
			if b.Server().Controller().Updates() == 0 {
				return false
			}
		}
	}
	return true
}

// liveRun is what one measured interval produced.
type liveRun struct {
	spec    liveSpec
	t0      int64 // epoch offset of the first measured window
	seconds int
	samples []sample // every request the clients settled, warm-up included
	sent    int64    // by the clients' own send counters
	rt      runtimeDelta
	stalls  [][2]int64             // epoch offsets between which the host ran nothing
	spans   []persephone.TraceSpan // traced rigs: spans drained since t0
	server  metricSet              // public counters at quiescence
	errs    []error                // what went wrong; empty on a correct run
}

// measure runs the load for seconds whole windows, lets the clients
// drain, checks the ledgers at quiescence and shuts the rig down.
func (r *rig) measure(seconds int) *liveRun {
	run := &liveRun{spec: r.spec, seconds: seconds}
	cut := 0
	if r.traced {
		// Drain what warm-up left in the span rings, so that the spans
		// after the cut belong to the measured interval.
		r.snapshotBackends()
		r.spansMu.Lock()
		cut = len(r.spans)
		r.spansMu.Unlock()
	}
	before := readRuntime()
	run.t0 = int64(time.Since(r.epoch))
	end := run.t0 + int64(seconds)*int64(time.Second)
	r.stopAt.Store(end)
	watchDone := make(chan [][2]int64)
	go func() { watchDone <- watchStalls(r.epoch, end) }()
	if r.traced {
		// The span rings hold 4096 spans a worker; drain them well
		// before they fill.
		tick := time.NewTicker(5 * time.Millisecond)
		for int64(time.Since(r.epoch)) < end {
			<-tick.C
			r.snapshotBackends()
		}
		tick.Stop()
	} else {
		time.Sleep(time.Duration(end - run.t0))
	}
	r.stop.Store(true)
	run.stalls = <-watchDone
	r.wg.Wait()
	run.rt = readRuntime().since(before)

	for _, c := range r.closed {
		run.samples = append(run.samples, c.samples...)
		run.sent += c.sent
	}
	if r.open != nil {
		run.samples, run.sent = r.open.collect()
	}
	run.server = r.quiescentCounters(run)
	if r.traced {
		r.spansMu.Lock()
		run.spans = r.spans[cut:]
		r.spansMu.Unlock()
	}
	r.fail(r.shutdown())
	run.errs = append(run.errs, r.errs...)
	return run
}

// stallLimit is how far past its wake-up time the watchdog may come
// round before the interval counts as a host stall.
const stallLimit = 5 * time.Millisecond

// watchStalls wakes every millisecond until end (an offset from epoch)
// and returns the intervals in which it could not: the host, a VM with
// neighbours, took the processors away, and whatever was in flight then
// measured the host. It depends on nothing the servers do.
func watchStalls(epoch time.Time, end int64) [][2]int64 {
	var stalls [][2]int64
	for last := int64(time.Since(epoch)); last < end; {
		preciseSleep(time.Millisecond)
		now := int64(time.Since(epoch))
		if now-last > int64(time.Millisecond+stallLimit) {
			stalls = append(stalls, [2]int64{last, now})
		}
		last = now
	}
	return stalls
}

func (r *rig) snapshotBackends() {
	for _, b := range r.backends {
		b.Server().StatsSnapshot()
	}
}

// quiescentCounters reads the servers' public counters after the
// clients have drained and checks the conservation identities.
func (r *rig) quiescentCounters(run *liveRun) metricSet {
	m := metricSet{}
	for _, b := range r.backends {
		st := b.Server().StatsSnapshot()
		if st.Enqueued != st.Dispatched+st.Dropped {
			run.errs = append(run.errs, fmt.Errorf("server ledger: enqueued %d != dispatched %d + dropped %d", st.Enqueued, st.Dispatched, st.Dropped))
		}
		m["psp.enqueued"] += float64(st.Enqueued)
		m["psp.dispatched"] += float64(st.Dispatched)
		m["psp.dropped"] += float64(st.Dropped)
		m["psp.reservation_updates"] += float64(st.Updates)
		m["psp.trace_lost"] += float64(st.TraceLost)
		if res := b.Server().Controller().Reservation(); res != nil && len(res.GroupOf) > 0 {
			m["darc.reserved_short_workers"] += float64(len(res.Groups[res.GroupOf[0]].Reserved))
		}
		m["net.rx_drops"] += float64(b.RxDrops())
		m["net.rx_sheds"] += float64(b.RxSheds())
		if u := b.UDP(); u != nil {
			m["net.tx_ring_full"] += float64(u.TxRingFull())
		}
		if t := b.TCP(); t != nil {
			m["net.tx_ring_full"] += float64(t.TxRingFull())
			m["tcp.conns_accepted"] += float64(t.ConnsAccepted())
		}
	}
	if r.fe != nil {
		st := r.fe.Stats()
		if n := st.SubUnaccounted(); n != 0 {
			run.errs = append(run.errs, fmt.Errorf("frontend ledger: %d sub-requests unaccounted", n))
		}
		m["frontend.query_p50_us"] = float64(st.QueryP50) / 1e3
		m["frontend.query_p99_us"] = float64(st.QueryP99) / 1e3
		m["frontend.sub_issued"] = float64(st.SubIssued)
		m["frontend.sub_replied"] = float64(st.SubReplied)
		m["frontend.sub_timed_out"] = float64(st.SubTimedOut)
		m["frontend.hedges"] = float64(st.Hedges)
		m["frontend.shed"] = float64(st.QueriesShed)
	}
	return m
}

// shutdown stops the clients, waits for them, and closes every socket
// and server the rig opened. It is safe on a half-built rig.
func (r *rig) shutdown() error {
	r.stop.Store(true)
	r.stopAt.CompareAndSwap(0, 1)
	r.wg.Wait()
	var errs []error
	for _, c := range r.closed {
		errs = append(errs, c.w.Close())
	}
	if r.open != nil {
		errs = append(errs, r.open.w.Close())
	}
	if r.fe != nil {
		errs = append(errs, r.fe.Close())
	}
	for _, b := range r.backends {
		errs = append(errs, b.Close())
	}
	r.closed, r.open, r.fe, r.backends = nil, nil, nil, nil
	return errors.Join(errs...)
}
