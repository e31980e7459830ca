package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{Records: []Record{
		{Offset: 0, Type: 0, Service: 500 * time.Nanosecond},
		{Offset: 800 * time.Nanosecond, Type: 1, Service: 500 * time.Microsecond},
		{Offset: 2 * time.Microsecond, Type: 0, Service: 500 * time.Nanosecond},
	}}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len %d", got.Len())
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], tr.Records[i])
		}
	}
	// The documented CSV format, written by hand.
	lit, err := Read(strings.NewReader("offset_ns,type,service_ns\n0,0,1000\n500,1,2000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if lit.Len() != 2 || lit.NumTypes() != 2 {
		t.Fatalf("hand-written trace read as %+v", lit)
	}
}

func TestStats(t *testing.T) {
	tr := sampleTrace()
	if tr.NumTypes() != 2 {
		t.Fatalf("types %d", tr.NumTypes())
	}
	if tr.Duration() != 2*time.Microsecond {
		t.Fatalf("duration %v", tr.Duration())
	}
	if r := tr.Rate(); r < 0.9e6 || r > 1.1e6 {
		t.Fatalf("rate %g (2 gaps over 2µs)", r)
	}
	empty := &Trace{}
	if empty.NumTypes() != 0 || empty.Duration() != 0 || empty.Rate() != 0 {
		t.Fatal("empty trace stats")
	}
}

func TestValidate(t *testing.T) {
	good := sampleTrace()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{Records: []Record{
		{Offset: 10, Type: 0, Service: 1},
		{Offset: 5, Type: 0, Service: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unsorted trace accepted")
	}
	bad.Sort()
	if err := bad.Validate(); err != nil {
		t.Fatal("sorted trace rejected")
	}
	if err := (&Trace{Records: []Record{{Offset: 0, Type: -1, Service: 1}}}).Validate(); err == nil {
		t.Fatal("negative type accepted")
	}
	if err := (&Trace{Records: []Record{{Offset: 0, Type: 0, Service: 0}}}).Validate(); err == nil {
		t.Fatal("zero service accepted")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"offset_ns,type,service_ns\n1,2\n",
		"abc,0,1\n",
		"0,abc,1\n",
		"0,0,abc\n",
		"5,0,1\n1,0,1\n", // out of order
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	// Blank lines and header tolerated.
	tr, err := Read(strings.NewReader("offset_ns,type,service_ns\n\n0,0,500\n"))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("tolerant parse: %v %d", err, tr.Len())
	}
}

func TestScale(t *testing.T) {
	tr := sampleTrace()
	half := tr.Scale(0.5)
	if half.Records[2].Offset != time.Microsecond {
		t.Fatalf("scaled offset %v", half.Records[2].Offset)
	}
	if half.Records[2].Service != tr.Records[2].Service {
		t.Fatal("scale changed service times")
	}
	same := tr.Scale(0)
	if same.Records[2].Offset != tr.Records[2].Offset {
		t.Fatal("factor<=0 should be identity")
	}
}

type fakeGen struct{ n int }

func (g *fakeGen) Next() (time.Duration, int, time.Duration) {
	g.n++
	return time.Microsecond, g.n % 2, 10 * time.Microsecond
}

func TestGenerate(t *testing.T) {
	tr := Generate(&fakeGen{}, 10*time.Microsecond)
	if tr.Len() != 10 {
		t.Fatalf("generated %d records", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
