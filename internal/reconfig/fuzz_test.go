package reconfig

import (
	"math"
	"testing"
	"time"
)

// FuzzParseSpecFile drives the SIGHUP file grammar, and through it
// ParseSpec, the admin endpoint's: whatever the input, parsing never
// panics, and a spec it accepts asks for something and carries only
// values the server can apply — a positive worker count, no negative
// duration, a positive finite auto-budget multiplier.
func FuzzParseSpecFile(f *testing.F) {
	// Every key at once, then each key alone, then edge cases.
	f.Add(`# every key
policy = darc-static
workers = 6
static-reserved = 2
static-means = 5us,500us
steer-seed = 7
admission = 3ms,0,50ms
unknown-budget = 10ms
admission-trim = 1ms
admission-automult = 25
admission-minbudget = 2ms
darc-update = true
drain = 2s
`)
	for _, line := range []string{
		"policy=cfcfs",
		"workers=3",
		"policy=darc-static\nstatic-reserved=1",
		"policy=darc-static\nstatic-means=5us,0",
		"policy=dfcfs\nsteer-seed=18446744073709551615",
		"admission=0,1ms",
		"unknown-budget=0s",
		"admission-trim=500us",
		"admission-automult=1e-9",
		"admission-minbudget=1ns",
		"darc-update=1",
		"drain=0",
		"admission-automult=NaN",
		"admission-automult=-Inf",
		"admission-automult=1e309",
		"drain=-1s",
		"workers=-1",
		"admission=1ms,,2ms",
		"static-reserved=1",
		"policy=darc\npolicy=cfcfs",
		"=",
		"# only a comment",
		"workers",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpecFile(text)
		if err != nil {
			return // rejection is always fine
		}
		if sp.Empty() {
			t.Fatalf("%q: accepted an empty spec", text)
		}
		if sp.Workers != nil && *sp.Workers <= 0 {
			t.Fatalf("%q: workers %d", text, *sp.Workers)
		}
		durations := []time.Duration{sp.DrainDeadline}
		if p := sp.Policy; p != nil {
			durations = append(durations, p.StaticMeans...)
		}
		if a := sp.Admission; a != nil {
			durations = append(durations, a.Budgets...)
			for _, d := range []*time.Duration{a.UnknownBudget, a.OverloadDelay, a.MinBudget} {
				if d != nil {
					durations = append(durations, *d)
				}
			}
			if m := a.AutoMult; m != nil && (!(*m > 0) || math.IsInf(*m, 0)) {
				t.Fatalf("%q: auto-budget multiplier %v", text, *m)
			}
		}
		for _, d := range durations {
			if d < 0 {
				t.Fatalf("%q: negative duration %v in %+v", text, d, sp)
			}
		}
	})
}
