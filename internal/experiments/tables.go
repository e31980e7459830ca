package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/workload"
)

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Table1 reproduces the paper's Table 1: the four §2 policies and
// their structural properties, checked against the live
// implementations rather than hand-written.
func Table1() *Table {
	t := &Table{
		Name:   "table1",
		Title:  "Policy taxonomy (paper Table 1)",
		Header: []string{"policy", "typed_queues", "non_work_conserving", "non_preemptive", "example_system"},
	}
	rows := []struct {
		label   string
		p       policy.TraitsProvider
		example string
	}{
		{"d-FCFS", policy.NewDFCFS(rng.New(1), 0), "IX / Arrakis"},
		{"c-FCFS", policy.NewCFCFS(0), "ZygOS / Shenango"},
		{"TS", policy.NewTSMultiQueue(policy.TSConfig{}, 2), "Shinjuku"},
		{"DARC", policy.NewDARC(darc.DefaultConfig(14), 2, 0), "Persephone"},
	}
	for _, r := range rows {
		tr := r.p.Traits()
		t.Rows = append(t.Rows, []string{
			r.label,
			boolMark(tr.TypedQueues),
			boolMark(!tr.WorkConserving),
			boolMark(!tr.Preemptive),
			r.example,
		})
	}
	return t
}

// Table3 reproduces the paper's Table 3: the two bimodal workloads and
// their dispersion, computed from the implemented mixes.
func Table3() *Table {
	t := &Table{
		Name:   "table3",
		Title:  "Bimodal workloads (paper Table 3)",
		Header: []string{"workload", "short_runtime", "short_ratio", "long_runtime", "long_ratio", "dispersion", "mean_service"},
	}
	for _, mix := range []workload.Mix{workload.HighBimodal(), workload.ExtremeBimodal()} {
		short, long := mix.Types[0], mix.Types[1]
		t.Rows = append(t.Rows, []string{
			mix.Name,
			fmtDur(short.Service.Mean()),
			fmt.Sprintf("%.1f%%", short.Ratio*100),
			fmtDur(long.Service.Mean()),
			fmt.Sprintf("%.1f%%", long.Ratio*100),
			fmt.Sprintf("%.0fx", mix.Dispersion()),
			fmtDur(mix.MeanService()),
		})
	}
	return t
}

// Table4 reproduces the paper's Table 4: the TPC-C transaction mix.
func Table4() *Table {
	t := &Table{
		Name:   "table4",
		Title:  "TPC-C workload (paper Table 4)",
		Header: []string{"transaction", "runtime", "ratio", "dispersion_vs_payment"},
	}
	mix := workload.TPCC()
	base := mix.Types[0].Service.Mean()
	for _, ts := range mix.Types {
		t.Rows = append(t.Rows, []string{
			ts.Name,
			fmtDur(ts.Service.Mean()),
			fmt.Sprintf("%.0f%%", ts.Ratio*100),
			fmt.Sprintf("%.2fx", float64(ts.Service.Mean())/float64(base)),
		})
	}
	return t
}

// Table5 reproduces the paper's Table 5: the extended policy
// comparison, with the structural columns checked against the
// implementations.
func Table5() *Table {
	t := &Table{
		Name:   "table5",
		Title:  "Extended scheduling policy comparison (paper Table 5)",
		Header: []string{"policy", "app_aware", "non_preemptive", "non_work_conserving", "ideal_workload"},
	}
	means := []time.Duration{time.Microsecond, 100 * time.Microsecond}
	rows := []struct {
		label string
		p     policy.TraitsProvider
		ideal string
	}{
		{"d-FCFS", policy.NewDFCFS(rng.New(1), 0), "light-tailed"},
		{"c-FCFS", policy.NewCFCFS(0), "light-tailed"},
		{"work-stealing (Shenango)", policy.NewWorkStealing(rng.New(1), 0, 100*time.Nanosecond), "light-tailed"},
		{"Processor sharing (TS)", policy.NewTSSingleQueue(policy.TSConfig{}), "heavy-tailed w/o priorities"},
		{"Deficit round robin", policy.NewDRR(2, 10*time.Microsecond, nil, 0), "flows with fairness requirements"},
		{"Fixed priority", policy.NewFixedPriority(means, 0), "priority independent of service time"},
		{"EDF", policy.NewEDF(means, 10, 0), "priority independent of service time"},
		{"SJF (oracle)", policy.NewSJF(0), "custom; requires exact sizes"},
		{"Static partitioning", policy.NewDARCStatic(means, 1, 0), "types with separate SLOs"},
		{"DARC", policy.NewDARC(darc.DefaultConfig(14), 2, 0), "heavy-tailed with high-priority shorts"},
	}
	for _, r := range rows {
		tr := r.p.Traits()
		t.Rows = append(t.Rows, []string{
			r.label,
			boolMark(tr.AppAware),
			boolMark(!tr.Preemptive),
			boolMark(!tr.WorkConserving),
			r.ideal,
		})
	}
	return t
}

// The policy axis entries the figures share. Their seed offsets and
// quanta are the experiments' own (see DESIGN.md §3), which is why
// they are not sched.Spec values.

func specDFCFS() PolicySpec {
	return PolicySpec{Name: "d-FCFS", New: func(ctx RunCtx) cluster.Policy {
		return policy.NewDFCFS(rng.New(ctx.Seed+1000), 0)
	}}
}

func specCFCFS() PolicySpec {
	return PolicySpec{Name: "c-FCFS", New: func(RunCtx) cluster.Policy {
		return policy.NewCFCFS(0)
	}}
}

// specShenango is Shenango's c-FCFS approximation: RSS + work stealing.
func specShenango() PolicySpec {
	return PolicySpec{Name: "shenango-cFCFS", New: func(ctx RunCtx) cluster.Policy {
		return policy.NewWorkStealing(rng.New(ctx.Seed+2000), 0, 100*time.Nanosecond)
	}}
}

// specShenangoDFCFS is Shenango with stealing disabled (the paper's
// d-FCFS baseline in §5.4).
func specShenangoDFCFS() PolicySpec {
	return PolicySpec{Name: "shenango-dFCFS", New: func(ctx RunCtx) cluster.Policy {
		return policy.NewDFCFS(rng.New(ctx.Seed+3000), 0)
	}}
}

// specShinjukuSQ is Shinjuku's single-queue policy with the paper's
// measured 1µs preemption cost.
func specShinjukuSQ(quantum time.Duration) PolicySpec {
	return PolicySpec{Name: "shinjuku-SQ", New: func(RunCtx) cluster.Policy {
		return policy.NewTSSingleQueue(policy.TSConfig{Quantum: quantum, PreemptCost: time.Microsecond})
	}}
}

// specShinjukuMQ is Shinjuku's multi-queue (BVT) policy.
func specShinjukuMQ(quantum time.Duration, numTypes int) PolicySpec {
	return PolicySpec{Name: "shinjuku-MQ", New: func(RunCtx) cluster.Policy {
		return policy.NewTSMultiQueue(policy.TSConfig{Quantum: quantum, PreemptCost: time.Microsecond}, numTypes)
	}}
}

// darcConfigFor builds a DARC config with the profiling window sized
// for this run.
func darcConfigFor(workers int, ctx RunCtx) darc.Config {
	cfg := darc.DefaultConfig(workers)
	cfg.MinWindowSamples = ctx.DARCWindow()
	return cfg
}

func specDARC(workers, numTypes int) PolicySpec {
	return PolicySpec{Name: "DARC", New: func(ctx RunCtx) cluster.Policy {
		return policy.NewDARC(darcConfigFor(workers, ctx), numTypes, 0)
	}}
}

// specDARCNoSteal is DARC with cycle stealing off: strict static
// partitioning of the reservation.
func specDARCNoSteal(workers, numTypes int) PolicySpec {
	return PolicySpec{Name: "DARC-nosteal", New: func(ctx RunCtx) cluster.Policy {
		cfg := darcConfigFor(workers, ctx)
		cfg.NoCycleStealing = true
		return policy.NewDARC(cfg, numTypes, 0)
	}}
}

func specDARCStatic(mix workload.Mix, reserved int) PolicySpec {
	means := mix.Means()
	return PolicySpec{
		Name: fmt.Sprintf("DARC-static(%d)", reserved),
		New: func(RunCtx) cluster.Policy {
			// Unbounded queues: Figure 4's right side starves long
			// requests, and load shedding would otherwise flatter the
			// starved configurations (survivors look fast).
			return policy.NewDARCStatic(means, reserved, -1)
		},
	}
}

func specDARCRandom(workers, numTypes int) PolicySpec {
	return PolicySpec{Name: "DARC-random", New: func(ctx RunCtx) cluster.Policy {
		return &policy.Relabel{
			Inner:    policy.NewDARC(darcConfigFor(workers, ctx), numTypes, 0),
			NumTypes: numTypes,
			R:        rng.New(ctx.Seed + 4000),
		}
	}}
}

func specTSIdeal(total time.Duration) PolicySpec {
	name := fmt.Sprintf("TS-%dus", total/time.Microsecond)
	return PolicySpec{Name: name, New: func(RunCtx) cluster.Policy {
		return policy.NewTSIdeal(total/2, total-total/2, 0)
	}}
}
