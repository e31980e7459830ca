package experiments

import (
	"fmt"
	"time"

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
