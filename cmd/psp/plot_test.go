package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*_slowdown", "DARC_slowdown", true},
		{"*_slowdown", "slowdown", false},
		{"load", "load", true},
		{"load", "loads", false},
		{"DARC_*", "DARC_p999", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "ab", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.s); got != c.want {
			t.Errorf("globMatch(%q,%q)=%v want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestSeriesName(t *testing.T) {
	if got := seriesName("DARC_slowdown_p999", "*_slowdown_p999"); got != "DARC" {
		t.Fatalf("got %q", got)
	}
	if got := seriesName("exact", "exact"); got != "exact" {
		t.Fatalf("got %q", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "fig.csv")
	csv := "load,offered_Mrps,DARC_slowdown_p999,c-FCFS_slowdown_p999\n" +
		"0.10,0.5,1.00,1.00\n" +
		"0.50,2.5,1.26,219.1\n" +
		"0.90,4.5,4.16,starved\n" // non-numeric cells skipped
	if err := os.WriteFile(in, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "fig.svg")
	if err := plot(in, out, "load", "*_slowdown_p999", true, "test fig"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	svg := string(data)
	for _, want := range []string{"<svg", "DARC", "c-FCFS", "test fig"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.csv")
	os.WriteFile(in, []byte("a,b\n1,2\n"), 0o644) //nolint:errcheck
	if err := plot(in, filepath.Join(dir, "o.svg"), "load", "*_slowdown", true, ""); err == nil {
		t.Fatal("missing x column accepted")
	}
	if err := plot(in, filepath.Join(dir, "o.svg"), "a", "*_nope", true, ""); err == nil {
		t.Fatal("no matching y columns accepted")
	}
	if err := plot(filepath.Join(dir, "absent.csv"), "", "load", "*", true, ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
