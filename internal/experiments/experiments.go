// Package experiments regenerates every table and figure of the
// paper's evaluation on the discrete-event simulator: workload
// definitions (Tables 3-4), policy taxonomies (Tables 1 and 5), the §2
// motivation simulation (Figure 1), the Perséphone-internal policy
// comparison (Figure 3), the non-work-conservation ablation (Figure
// 4), the cross-system comparisons (Figures 5a/5b/6/8), the
// workload-change and broken-classifier robustness experiments
// (Figures 7 and 9), and the preemption-overhead study (Figure 10).
//
// Each experiment returns one or more Tables that print the same rows
// or series the paper reports, and can be written as CSV for plotting.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/workload"
)

// Options tunes experiment execution. The zero value is usable.
type Options struct {
	// Duration is the simulated horizon per load point (default 1s;
	// the paper runs 20s but distributions stabilize much earlier).
	Duration time.Duration
	// Seed drives every run (same seed → same arrival sequences across
	// policies, so comparisons are paired).
	Seed uint64
	// Loads are the offered-load fractions to sweep (default the
	// paper-style 10%..95% grid).
	Loads []float64
	// Parallel bounds concurrent simulation runs (default NumCPU).
	Parallel int
	// CSVDir, when set, receives one CSV file per table.
	CSVDir string
	// MinWindowSamples sets DARC's profiling window (default 5000;
	// the paper uses 50000 over 20s runs — scale it with Duration):
	// the cap on a sweep's auto-sized window (RunCtx.DARCWindow), and
	// Figure 7's window as given.
	MinWindowSamples uint64
}

func (o Options) fill() Options {
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95}
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if o.MinWindowSamples == 0 {
		o.MinWindowSamples = sweepWindowCap
	}
	return o
}

// Table is a printable experiment artifact.
type Table struct {
	// Name is the artifact's identifier ("figure1", "table3", ...).
	Name string
	// Title is the human-readable caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carries shape observations vs the paper's claims.
	Notes []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table to dir/<name>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return os.WriteFile(filepath.Join(dir, t.Name+".csv"), []byte(b.String()), 0o644)
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Emit prints tables to w and writes CSVs when configured.
func Emit(w io.Writer, opt Options, tables ...*Table) error {
	for _, t := range tables {
		t.Fprint(w)
		if opt.CSVDir != "" {
			if err := t.WriteCSV(opt.CSVDir); err != nil {
				return err
			}
		}
	}
	return nil
}

func fmtSlow(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtDur(d time.Duration) string {
	us := float64(d) / float64(time.Microsecond)
	if us >= 100 {
		return fmt.Sprintf("%.0fus", us)
	}
	return fmt.Sprintf("%.2fus", us)
}

// typeIndexByName resolves a type index in a mix, panicking on
// programmer error (experiments reference their own mixes).
func typeIndexByName(mix workload.Mix, name string) int {
	i := mix.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("experiments: mix %q has no type %q", mix.Name, name))
	}
	return i
}
