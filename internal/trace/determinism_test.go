package trace_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sourceAdapter bridges workload.Source to trace.Generator (the same
// shim `psp trace record` uses).
type sourceAdapter struct{ s *workload.Source }

func (a sourceAdapter) Next() (time.Duration, int, time.Duration) {
	arr := a.s.Next()
	return arr.Gap, arr.Type, arr.Service
}

// dumpTrace generates a trace from a fresh seeded source and writes
// its canonical CSV form.
func dumpTrace(t *testing.T, seed uint64, bursty bool) []byte {
	t.Helper()
	mix := workload.TwoType("short", 1*time.Microsecond, 0.5, "long", 100*time.Microsecond)
	var gen trace.Generator
	if bursty {
		b, err := workload.NewBurstySource(mix, 100000, 4, 5*time.Millisecond, 15*time.Millisecond, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		gen = b
	} else {
		src, err := workload.NewSource(mix, 100000, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		gen = sourceAdapter{src}
	}
	tr := trace.Generate(gen, 100*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGenerationDeterministic pins the internal/rng split-stream
// contract the simulator depends on: the same seed yields a
// byte-identical trace dump, and a different seed yields a different
// one — for both the plain Poisson source and the bursty MMPP.
func TestTraceGenerationDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bursty bool
	}{
		{"poisson", false},
		{"bursty", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := dumpTrace(t, 42, tc.bursty)
			b := dumpTrace(t, 42, tc.bursty)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different trace dumps")
			}
			if len(a) == 0 || bytes.Count(a, []byte{'\n'}) < 100 {
				t.Fatalf("suspiciously small dump (%d bytes) — nothing was generated", len(a))
			}
			c := dumpTrace(t, 43, tc.bursty)
			if bytes.Equal(a, c) {
				t.Fatal("different seeds produced identical trace dumps")
			}
		})
	}
}

// TestSpanDumpDeterministic extends the guarantee to the span format:
// serialising the same spans twice is byte-identical (the writer has
// no hidden state, map iteration, or timestamps of its own).
func TestSpanDumpDeterministic(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Type: 0, Worker: 0, Started: 5, Finished: 105, Replied: 107},
		{ID: 2, Type: 1, Worker: 1, Ingress: 10, Started: 21, Finished: 2021, Replied: 2022},
	}
	var a, b bytes.Buffer
	if err := trace.WriteSpans(&a, spans); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSpans(&b, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("span serialisation is not deterministic")
	}
}
