package experiments

import (
	"fmt"

	"repro/internal/workload"
)

// ExtFanoutSim runs the multi-machine fan-out simulation (as opposed
// to ext-fanout's independent-shard analytics): short user queries fan
// out to k of 8 backends while each backend also serves long
// background work; the query answers when its slowest shard does.
func ExtFanoutSim(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.HighBimodal()
	const backends = 8
	const workersPer = 8
	const shardLoad = 0.80
	fanouts := []int{1, 4, 8}

	g := paperGrid(opt, mix, workersPer, specDARC(workersPer, len(mix.Types)), specCFCFS())
	g.Loads = []float64{shardLoad}
	g.RTT = 0
	g.Backends = backends
	g.FanOuts = fanouts
	s, err := g.run(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "ext_fanout_sim",
		Title: fmt.Sprintf("simulated fan-out: %d backends x %d workers at %.0f%% load, short queries fan out, longs run as background",
			backends, workersPer, shardLoad*100),
		Header: []string{"policy", "fanout", "queries", "query_p99", "query_p999", "shard_p999"},
	}
	for _, p := range s.Points {
		r := p.Fanout
		t.Rows = append(t.Rows, []string{
			p.Spec.Name,
			fmt.Sprintf("%d", p.FanOut),
			fmt.Sprintf("%d", r.Queries),
			fmtDur(r.QueryLatency.QuantileDuration(0.99)),
			fmtDur(r.QueryLatency.QuantileDuration(0.999)),
			fmtDur(r.ShardLatency.QuantileDuration(0.999)),
		})
	}
	// Amplification note: how much each policy's query p99 grows from
	// k=1 to k=max.
	for si, spec := range g.Policies {
		pts := s.Points[si*len(fanouts) : (si+1)*len(fanouts)]
		base := pts[0].Fanout.QueryLatency.QuantileDuration(0.99)
		wide := pts[len(pts)-1].Fanout.QueryLatency.QuantileDuration(0.99)
		if base > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: query p99 grows %.1fx from k=1 (%v) to k=%d (%v)",
				spec.Name, float64(wide)/float64(base), base, fanouts[len(fanouts)-1], wide))
		}
	}
	return []*Table{t}, nil
}
