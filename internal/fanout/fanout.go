// Package fanout simulates the paper's §1 motivating deployment
// end-to-end: a frontend fans each user query out to k of n backend
// machines and answers when the slowest shard responds, so per-shard
// scheduling tails compound at the query level. Unlike the analytic
// ext-fanout experiment (independent shards), this simulation runs all
// backends on one virtual clock, capturing the correlation induced by
// shared arrival processes.
package fanout

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes a fan-out simulation.
type Config struct {
	// Backends is the number of backend machines.
	Backends int
	// FanOut is how many distinct backends each query contacts.
	FanOut int
	// WorkersPerBackend sizes each backend machine.
	WorkersPerBackend int
	// Mix defines the per-shard traffic. Fan-out queries consist of
	// QueryType sub-requests (default: type 0, the short class — the
	// paper's user-facing RPCs); the mix's other types arrive at each
	// backend independently as background load (the long work sharing
	// the machines), preserving the mix's overall composition.
	Mix workload.Mix
	// QueryType is the type index queries fan out (default 0).
	QueryType int
	// ShardLoad is each backend's offered utilization from fan-out
	// traffic (0..1); the query rate is derived from it.
	ShardLoad float64
	// Duration is the simulated horizon; WarmupFraction of it is
	// discarded.
	Duration       time.Duration
	WarmupFraction float64
	// Seed drives arrivals and backend selection.
	Seed uint64
	// NewPolicy constructs one backend's scheduling policy.
	NewPolicy func() cluster.Policy
}

// Result summarises a fan-out run.
type Result struct {
	Queries       uint64
	SubRequests   uint64
	QueryLatency  metrics.Histogram // completion = slowest shard (ns)
	ShardLatency  metrics.Histogram // individual sub-request sojourns (ns)
	QueryRate     float64
	BackendBusy   []float64
	DroppedShards uint64
}

type query struct {
	arrival   sim.Time
	remaining int
	latest    sim.Time
	counted   bool
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Backends <= 0 || cfg.FanOut <= 0 || cfg.FanOut > cfg.Backends {
		return nil, fmt.Errorf("fanout: need 0 < FanOut <= Backends, got %d/%d", cfg.FanOut, cfg.Backends)
	}
	if cfg.WorkersPerBackend <= 0 || cfg.Duration <= 0 || cfg.NewPolicy == nil {
		return nil, fmt.Errorf("fanout: config needs workers, duration and a policy")
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if cfg.ShardLoad <= 0 || cfg.ShardLoad >= 1.5 {
		return nil, fmt.Errorf("fanout: shard load %g out of (0,1.5)", cfg.ShardLoad)
	}

	s := sim.New()
	r := rng.New(cfg.Seed)
	res := &Result{}
	warmup := time.Duration(float64(cfg.Duration) * cfg.WarmupFraction)

	// Backends share the clock; each has its own policy instance and
	// recorder-less machine (we track latencies at the frontend).
	machines := make([]*cluster.Machine, cfg.Backends)
	pending := make(map[*cluster.Request]*query, 1024)
	var spare []*query // answered queries, for reuse
	for b := 0; b < cfg.Backends; b++ {
		m := cluster.NewMachine(s, cfg.WorkersPerBackend, cfg.NewPolicy(), nil)
		m.OnComplete = func(req *cluster.Request, at sim.Time) {
			q, ok := pending[req]
			if !ok {
				return
			}
			delete(pending, req)
			if at > q.latest {
				q.latest = at
			}
			res.ShardLatency.RecordDuration(at - req.Arrival)
			q.remaining--
			if q.remaining > 0 {
				return
			}
			if q.counted {
				res.QueryLatency.RecordDuration(q.latest - q.arrival)
				res.Queries++
			}
			spare = append(spare, q)
		}
		machines[b] = m
	}

	// Split the mix: QueryType arrives via fan-out queries, everything
	// else as independent per-backend background, preserving the
	// overall composition at ShardLoad utilization.
	qt := cfg.QueryType
	if qt < 0 || qt >= len(cfg.Mix.Types) {
		qt = 0
	}
	perBackendRate := cfg.ShardLoad * cfg.Mix.PeakLoad(cfg.WorkersPerBackend)
	queryTypeRatio := cfg.Mix.Types[qt].Ratio
	subRatePerBackend := perBackendRate * queryTypeRatio
	queryRate := subRatePerBackend * float64(cfg.Backends) / float64(cfg.FanOut)
	res.QueryRate = queryRate

	gapRNG := r.Split()
	svcRNG := r.Split()
	sel := r.Split()
	queryDist := cfg.Mix.Types[qt].Service

	// Arrivals allocate nothing per event: each process binds its
	// callback once, the backend choice permutes a reused slice (the
	// same draws as sel.Perm), and finished queries are reused.
	perm := make([]int, cfg.Backends)
	swap := func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }
	var arriveQuery func()
	nextQuery := func() {
		s.After(time.Duration(gapRNG.Exp(1/queryRate)*float64(time.Second)), arriveQuery)
	}
	arriveQuery = func() {
		now := s.Now()
		var q *query
		if n := len(spare); n > 0 {
			q, spare = spare[n-1], spare[:n-1]
		} else {
			q = new(query)
		}
		*q = query{arrival: now, remaining: cfg.FanOut, counted: now >= warmup}
		for i := range perm {
			perm[i] = i
		}
		sel.Shuffle(len(perm), swap)
		for i := 0; i < cfg.FanOut; i++ {
			req := machines[perm[i]].Arrive(qt, queryDist.Sample(svcRNG))
			pending[req] = q
		}
		nextQuery()
	}
	nextQuery()

	// Background traffic: the mix's remaining types, per backend.
	if bgRatio := 1 - queryTypeRatio; bgRatio > 1e-9 && len(cfg.Mix.Types) > 1 {
		bgMix := workload.Mix{Name: cfg.Mix.Name + "-bg"}
		var typeOf []int // background type -> mix type
		for i, t := range cfg.Mix.Types {
			if i == qt {
				continue
			}
			t.Ratio /= bgRatio
			bgMix.Types = append(bgMix.Types, t)
			typeOf = append(typeOf, i)
		}
		for b := 0; b < cfg.Backends; b++ {
			m := machines[b]
			src, err := workload.NewSource(bgMix, perBackendRate*bgRatio, r.Split())
			if err != nil {
				return nil, err
			}
			a := src.Next()
			var arrive func()
			arrive = func() {
				m.Arrive(typeOf[a.Type], a.Service)
				a = src.Next()
				s.After(a.Gap, arrive)
			}
			s.After(a.Gap, arrive)
		}
	}
	s.RunUntil(cfg.Duration)

	for _, m := range machines {
		res.SubRequests += m.Completed()
		res.DroppedShards += m.Dropped()
		res.BackendBusy = append(res.BackendBusy, m.Utilization())
	}
	return res, nil
}
