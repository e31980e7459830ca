package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// tinyOptions keeps simulation-backed tests fast.
func tinyOptions() Options {
	return Options{
		Duration:         40 * time.Millisecond,
		Loads:            []float64{0.4, 0.8},
		Seed:             7,
		MinWindowSamples: 500,
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tb := &Table{
		Name:   "t",
		Title:  "title",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
		Notes:  []string{"note text"},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t — title") || !strings.Contains(out, "note: note text") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tb := &Table{
		Name:   "csvtest",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"2", `with"quote`}},
	}
	if err := tb.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "csvtest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"with,comma\"\n2,\"with\"\"quote\"\n"
	if string(data) != want {
		t.Fatalf("csv %q, want %q", data, want)
	}
}

func TestStaticTables(t *testing.T) {
	for _, tb := range []*Table{Table1(), Table3(), Table4(), Table5()} {
		if len(tb.Rows) == 0 || len(tb.Header) == 0 {
			t.Errorf("%s empty", tb.Name)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d vs header %d", tb.Name, len(row), len(tb.Header))
			}
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tb := Table1()
	// DARC row: typed queues yes, non-work-conserving yes,
	// non-preemptive yes.
	var darcRow []string
	for _, row := range tb.Rows {
		if row[0] == "DARC" {
			darcRow = row
		}
	}
	if darcRow == nil {
		t.Fatal("no DARC row")
	}
	if darcRow[1] != "yes" || darcRow[2] != "yes" || darcRow[3] != "yes" {
		t.Fatalf("DARC row %v", darcRow)
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) != 23 {
		t.Fatalf("registry has %d artifacts: %v", len(names), names)
	}
	if err := Run("missing", Options{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

// tinyGrid is a two-load c-FCFS sweep on a small machine.
func tinyGrid(opt Options) *Grid {
	g := paperGrid(opt.fill(), workload.HighBimodal(), 4, specCFCFS())
	g.RTT = 0
	return g
}

func TestSweepPairsSeeds(t *testing.T) {
	opt := tinyOptions()
	a, err := tinyGrid(opt).run(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyGrid(opt).run(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].Res.Machine.Completed() != b.Points[i].Res.Machine.Completed() {
			t.Fatal("sweep not deterministic")
		}
	}
}

func TestSustainableLoad(t *testing.T) {
	opt := tinyOptions()
	s, err := tinyGrid(opt).run(opt)
	if err != nil {
		t.Fatal(err)
	}
	// With a huge target, the max load is sustainable; with an
	// impossible one, nothing is.
	if got := s.sustainable("c-FCFS", 1e12); got != 0.8 {
		t.Fatalf("sustainable %g, want 0.8", got)
	}
	if got := s.sustainable("c-FCFS", 0.0001); got != 0 {
		t.Fatalf("sustainable %g, want 0", got)
	}
}

// TestGridOrderDoesNotReachOutput runs one grid at Parallel 1 and 2
// and in reversed cell order: its rendered tables must be identical.
func TestGridOrderDoesNotReachOutput(t *testing.T) {
	opt := tinyOptions()
	opt.Duration = 20 * time.Millisecond
	mix := workload.HighBimodal()
	grid := func() *Grid {
		return paperGrid(opt.fill(), mix, 4, specDFCFS(), specCFCFS(), specDARC(4, len(mix.Types)))
	}
	render := func(pts []Point) string {
		s := &Sweep{Grid: pts[0].Grid, Points: pts}
		var buf bytes.Buffer
		for _, tb := range []*Table{s.slowdownCurve("c", "c"), s.typedLatency("l", "l")} {
			tb.Fprint(&buf)
		}
		return buf.String()
	}
	var outs []string
	for _, run := range []struct {
		parallel int
		reverse  bool
	}{{1, false}, {2, false}, {2, true}} {
		cells := grid().cells()
		order := longestFirst(cells)
		if run.reverse {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		pts, err := runCells(run.parallel, cells, order)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, render(pts))
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Fatalf("tables differ across parallelism or order:\n%s\n%s\n%s", outs[0], outs[1], outs[2])
	}
}

func TestLongestFirst(t *testing.T) {
	opt := tinyOptions()
	cells := tinyGrid(opt).cells() // loads 0.4, 0.8
	if got := longestFirst(cells); got[0] != 1 || got[1] != 0 {
		t.Fatalf("order %v, want the 80%% cell first", got)
	}
}

// TestStarvation checks Figure 4's rule on the runner: DARC-static
// with every core reserved for shorts starves the longs at 90% load,
// and one reserved core starves nothing.
func TestStarvation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := tinyOptions()
	opt.Duration = 100 * time.Millisecond
	mix := workload.HighBimodal()
	g := paperGrid(opt.fill(), mix, 14, specDARCStatic(mix, 14), specDARCStatic(mix, 1))
	g.Loads = []float64{0.9}
	s, err := g.run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Points[0].Starved; len(got) != 1 || got[0] != "long" {
		t.Fatalf("14 reserved cores: starved %v, want [long]", got)
	}
	if got := s.Points[1].Starved; len(got) != 0 {
		t.Fatalf("1 reserved core: starved %v", got)
	}
	tb := &Table{}
	noteStarved(tb, s)
	if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "DARC-static(14)") {
		t.Fatalf("notes %v", tb.Notes)
	}
}

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := tinyOptions()
	opt.Duration = 150 * time.Millisecond
	opt.Loads = []float64{0.8}
	tables, err := Figure9(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("tables %+v", tables)
	}
	// Columns: load, offered, c-FCFS, DARC, DARC-random.
	row := tables[0].Rows[0]
	if len(row) != 5 {
		t.Fatalf("row %v", row)
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := tinyOptions()
	tables, err := Figure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 15 { // reserved 0..14
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if len(tb.Notes) < 2 {
		t.Fatalf("notes %v", tb.Notes)
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := tinyOptions()
	opt.Duration = 300 * time.Millisecond // per phase
	opt.MinWindowSamples = 2000
	tables, err := Figure7(opt)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) < 20 {
		t.Fatalf("only %d windows", len(tb.Rows))
	}
	// The phase column must reach 4.
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] != "4" {
		t.Fatalf("last phase %s", last[1])
	}
	// At least one reservation update must have fired.
	if len(tb.Notes) == 0 || strings.Contains(tb.Notes[0], " 0 reservation updates") {
		t.Fatalf("notes %v", tb.Notes)
	}
}

// TestFigure7HonoursProfileWindow: Figure 7's DARC profiles over
// Options.MinWindowSamples, so a smaller window reacts sooner.
func TestFigure7HonoursProfileWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	notes := func(window uint64) []string {
		opt := tinyOptions()
		opt.Duration = 100 * time.Millisecond
		opt.MinWindowSamples = window
		tables, err := Figure7(opt)
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].Notes
	}
	small, large := notes(500), notes(5000)
	if strings.Join(small, "\n") == strings.Join(large, "\n") {
		t.Fatalf("windows 500 and 5000 give the same reservation updates: %v", small)
	}
}

func TestFigure7Phases(t *testing.T) {
	sched := Figure7Phases(14, time.Second)
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sched.Phases) != 4 {
		t.Fatalf("%d phases", len(sched.Phases))
	}
	// Phase 2 swaps service times relative to phase 1.
	p1 := sched.Phases[0].Mix
	p2 := sched.Phases[1].Mix
	if p1.Types[0].Service.Mean() != p2.Types[1].Service.Mean() {
		t.Fatal("phase 2 does not swap service times")
	}
}

func TestEmitWritesCSV(t *testing.T) {
	dir := t.TempDir()
	opt := Options{CSVDir: dir}
	var buf bytes.Buffer
	if err := Emit(&buf, opt, Table3()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table3.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestNearestLoad(t *testing.T) {
	loads := []float64{0.2, 0.5, 0.9}
	if nearestLoad(loads, 0.85) != 0.9 || nearestLoad(loads, 0.1) != 0.2 {
		t.Fatal("nearestLoad wrong")
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtSlow(5.234) != "5.23" || fmtSlow(52.34) != "52.3" || fmtSlow(5234) != "5234" {
		t.Fatal("fmtSlow wrong")
	}
	if fmtDur(1500*time.Nanosecond) != "1.50us" {
		t.Fatalf("fmtDur %s", fmtDur(1500*time.Nanosecond))
	}
}
