package policy

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// TestVictimHeapMatchesScan checks the victim index against the scan it
// replaces: over random filings and removals, top is the present ID
// with the largest key, the lowest ID on a tie.
func TestVictimHeapMatchesScan(t *testing.T) {
	const workers = 9
	r := rng.New(1)
	h := newVictimHeap(workers)
	present := make([]bool, workers)
	key := make([]time.Duration, workers)
	for step := 0; step < 20000; step++ {
		id := r.Intn(workers)
		if r.Intn(3) == 0 {
			h.remove(id)
			present[id] = false
		} else {
			// Few distinct keys, so ties are common.
			k := time.Duration(r.Intn(5))
			h.set(id, k)
			present[id], key[id] = true, k
		}
		want, wantKey := -1, time.Duration(-1)
		for i := range present {
			if present[i] && key[i] > wantKey {
				want, wantKey = i, key[i]
			}
		}
		got, gotKey := h.top()
		if got != want || want >= 0 && gotKey != wantKey {
			t.Fatalf("step %d: top (%d, %v), scan (%d, %v)", step, got, gotKey, want, wantKey)
		}
	}
}
