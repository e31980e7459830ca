package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/workload"
)

// AblationDispatcher reproduces the system-level effect behind
// Shinjuku's load ceiling: the paper measured Shinjuku's centralized
// dispatcher sustaining ≈4.5M 1µs requests/second *without*
// preemption, i.e. a ≈220ns serialized dispatch path. On Extreme
// Bimodal (peak 5.34Mrps on 16 workers), that path saturates before
// the workers do — the policy alone looks better than the system it
// runs in. We sweep load for Shinjuku's single-queue policy with and
// without the dispatcher stage, plus DARC for reference.
func AblationDispatcher(opt Options) ([]*Table, error) {
	opt = opt.fill()
	mix := workload.ExtremeBimodal()
	const workers = 16
	const dispatchCost = 222 * time.Nanosecond // 1s / 4.5M
	specs := []PolicySpec{
		specShinjukuSQ(5 * time.Microsecond),
		{Name: "shinjuku-SQ+dispatcher", New: func(RunCtx) cluster.Policy {
			return &policy.IngressBottleneck{
				Inner:      policy.NewTSSingleQueue(policy.TSConfig{Quantum: 5 * time.Microsecond, PreemptCost: time.Microsecond}),
				PerRequest: dispatchCost,
			}
		}},
		specDARC(opt, workers, len(mix.Types)),
	}
	points, err := sweep(opt, cluster.Config{Workers: workers}, mix, specs)
	if err != nil {
		return nil, err
	}
	t := slowdownCurveTable("ablation_dispatcher",
		"dispatcher-bottleneck ablation: Shinjuku's policy vs Shinjuku's system (Extreme Bimodal, 16 workers)",
		opt, points, specs)

	// Drops tell the ceiling story: the bounded dispatcher queue sheds
	// once the 222ns stage saturates (~84% of this mix's peak).
	byKey := indexPoints(points)
	drops := &Table{
		Name:   "ablation_dispatcher_drops",
		Title:  "drop rate with and without the dispatcher stage",
		Header: []string{"load", "shinjuku-SQ_droprate", "shinjuku-SQ+dispatcher_droprate"},
	}
	for _, load := range opt.Loads {
		plain := byKey[key("shinjuku-SQ", load)]
		capped := byKey[key("shinjuku-SQ+dispatcher", load)]
		drops.Rows = append(drops.Rows, []string{
			fmt.Sprintf("%.2f", load),
			fmt.Sprintf("%.4f", plain.Res.Recorder.DropRate()),
			fmt.Sprintf("%.4f", capped.Res.Recorder.DropRate()),
		})
	}
	plainSustain := sustainableLoad(opt, points, "shinjuku-SQ", 50)
	cappedSustain := sustainableLoad(opt, points, "shinjuku-SQ+dispatcher", 50)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"at 50x slowdown: plain policy sustains %.2f of peak, with the measured dispatcher path %.2f (paper observed Shinjuku dropping past 0.55 on this workload)",
		plainSustain, cappedSustain))
	return []*Table{t, drops}, nil
}
