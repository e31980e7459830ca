package persephone_test

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	persephone "repro"
	"repro/internal/darc"
)

// TestFigureCellsRerun feeds committed figure cells through Simulate
// with the cell's policy text and the figures' seed, and matches the
// CSV's strings byte for byte: a figure cell reruns as one Simulate
// call, the one psp sim makes. The sweeps clamp DARC's auto-sized
// profiling window to [200, 5000], so the DARC cell fixes the window
// its sweep chose.
func TestFigureCellsRerun(t *testing.T) {
	cases := []struct {
		csv, column, load string
		mix               persephone.Mix
		policy            string
	}{
		{"figure3.csv", "DARC", "0.90", persephone.HighBimodal(), "darc"},
		{"figure3.csv", "c-FCFS", "0.90", persephone.HighBimodal(), "cfcfs"},
		{"figure3.csv", "d-FCFS", "0.90", persephone.HighBimodal(), "dfcfs"},
		{"figure5a.csv", "shenango-cFCFS", "0.90", persephone.HighBimodal(), "shenango"},
		{"figure6.csv", "shinjuku-MQ", "0.90", persephone.TPCC(), "shinjuku-mq:10us"},
	}
	for _, tc := range cases {
		want := csvCell(t, tc.csv, tc.load, tc.column+"_slowdown_p999")
		var load float64
		fmt.Sscan(tc.load, &load)
		const workers, duration = 14, time.Second
		res, err := persephone.Simulate(persephone.SimConfig{
			Workers:       workers,
			Mix:           tc.mix,
			Policy:        tc.policy,
			LoadFraction:  load,
			Duration:      duration,
			RTT:           10 * time.Microsecond,
			Seed:          42,
			ProfileWindow: darc.AutoWindow(load*tc.mix.PeakLoad(workers), duration, 200, 5000),
		})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.csv, tc.policy, err)
		}
		if got := fmtSlowdown(res.OverallSlowdown); got != want {
			t.Errorf("%s %s at %s: Simulate gives %s, the CSV holds %s", tc.csv, tc.column, tc.load, got, want)
		}
	}
}

// csvCell reads results/name's cell in column col of the row whose
// first cell is row.
func csvCell(t *testing.T, name, row, col string) string {
	t.Helper()
	f, err := os.Open(filepath.Join("results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ci := slices.Index(rows[0], col)
	for _, r := range rows[1:] {
		if ci >= 0 && r[0] == row {
			return r[ci]
		}
	}
	t.Fatalf("%s has no cell (%s, %s)", name, row, col)
	return ""
}

// fmtSlowdown prints a slowdown the way the experiments' tables do.
func fmtSlowdown(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
