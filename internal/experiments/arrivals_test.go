package experiments

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/workload"
)

// pinnedArrivals is how many arrivals each stream digest covers.
const pinnedArrivals = 10000

// arrivalDigest folds arrivals into an FNV-1a digest.
type arrivalDigest struct {
	h    hash.Hash64
	n    int
	last time.Duration // the last folded arrival's instant
	buf  [24]byte
}

func newArrivalDigest() *arrivalDigest { return &arrivalDigest{h: fnv.New64a()} }

// add folds one arrival in; it reports false once the digest is full.
func (d *arrivalDigest) add(at time.Duration, typ int, service time.Duration) bool {
	if d.n == pinnedArrivals {
		return false
	}
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(at))
	binary.LittleEndian.PutUint64(d.buf[8:], uint64(typ))
	binary.LittleEndian.PutUint64(d.buf[16:], uint64(service))
	d.h.Write(d.buf[:])
	d.n++
	d.last = at
	return true
}

// digestPolicy folds every arrival's instant, type and demand into a
// digest and sheds the request, so a run measures its arrival stream
// alone.
type digestPolicy struct {
	m *cluster.Machine
	d *arrivalDigest
}

func (p *digestPolicy) Name() string                 { return "digest" }
func (p *digestPolicy) Init(m *cluster.Machine)      { p.m = m }
func (p *digestPolicy) WorkerFree(w *cluster.Worker) {}
func (p *digestPolicy) Arrive(r *cluster.Request) {
	p.d.add(r.Arrival, r.Type, r.Service)
	p.m.RecordDrop(r)
}

// TestArrivalStreamsPinned pins the draw order of the three arrival
// generators behind the committed figures: a change that draws the
// same numbers in another order (or on another generator) moves every
// CSV downstream, and would otherwise show only in a full rerun of the
// figures. Each digest covers the first 10 000 arrivals at the
// figures' default seed.
func TestArrivalStreamsPinned(t *testing.T) {
	const seed = 42
	check := func(name string, d *arrivalDigest, want uint64) {
		t.Helper()
		if d.n != pinnedArrivals {
			t.Fatalf("%s: %d arrivals, want %d", name, d.n, pinnedArrivals)
		}
		if got := d.h.Sum64(); got != want {
			t.Errorf("%s: arrival digest %#x, want %#x", name, got, want)
		}
	}

	// workload.Source: the Poisson process every sweep cell draws from.
	mix := workload.HighBimodal()
	src, err := workload.NewSource(mix, 0.9*mix.PeakLoad(14), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	d := newArrivalDigest()
	var at time.Duration
	for {
		a := src.Next()
		at += a.Gap
		if !d.add(at, a.Type, a.Service) {
			break
		}
	}
	check("Source", d, 0x9768b58a49831d98)

	// BurstySource with ext-burst's parameters.
	eb := workload.ExtremeBimodal()
	bsrc, err := workload.NewBurstySource(eb, 0.50*eb.PeakLoad(14), 4, 5*time.Millisecond, 15*time.Millisecond, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	d = newArrivalDigest()
	at = 0
	for {
		gap, typ, svc := bsrc.Next()
		at += gap
		if !d.add(at, typ, svc) {
			break
		}
	}
	check("BurstySource", d, 0x86e49675c71ebff7)

	// cluster.Run on Figure 7's schedule, with 2 ms phases so that all
	// three phase changes fall within the pinned arrivals.
	const phase = 2 * time.Millisecond
	d = newArrivalDigest()
	if _, err := cluster.Run(cluster.Config{
		Workers:   14,
		Schedule:  Figure7Phases(14, phase),
		Duration:  8 * time.Millisecond,
		Seed:      seed,
		NewPolicy: func() cluster.Policy { return &digestPolicy{d: d} },
	}); err != nil {
		t.Fatal(err)
	}
	check("phased cluster.Run", d, 0x3860e6ada2d26d7)
	if d.last < 3*phase {
		t.Fatalf("phased cluster.Run: arrival %d at %v, before the last phase change", pinnedArrivals, d.last)
	}
}
