package experiments

import (
	"testing"
	"time"
)

// requireConservation checks the client- and server-side ledgers of
// one overload point against each other, exactly.
func requireConservation(t *testing.T, pt *overloadPoint) {
	t.Helper()
	r := pt.Res
	if un := r.Unaccounted(); un != 0 {
		t.Fatalf("%s@%.1fx: %d requests unaccounted (sent %d, recv %d, dropped %d, timeout %d)",
			pt.System, pt.Multiple, un, r.Sent, r.Received, r.Dropped, r.TimedOut)
	}
	if r.TimedOut != 0 {
		t.Fatalf("%s@%.1fx: %d requests timed out; the drain window is too tight for this host",
			pt.System, pt.Multiple, r.TimedOut)
	}
	if pt.Admission == nil {
		if r.Dropped != 0 {
			t.Fatalf("%s@%.1fx: unprotected system dropped %d requests", pt.System, pt.Multiple, r.Dropped)
		}
		return
	}
	// Server-side ledger identity at quiescence, per slot and in total.
	var shed uint64
	for i, slot := range pt.Admission.Slots {
		if slot.Accepted != slot.Completed+slot.ShedDeadline+slot.ShedOverload+slot.ShedLost {
			t.Fatalf("%s@%.1fx slot %d: accepted %d != completed %d + shed %d/%d/%d",
				pt.System, pt.Multiple, i, slot.Accepted, slot.Completed,
				slot.ShedDeadline, slot.ShedOverload, slot.ShedLost)
		}
		shed += slot.Shed()
	}
	// Every server-side shed is a client-side drop: the in-process
	// client runs without retries, so the two ledgers must agree
	// exactly — per type, not just in total.
	if shed != r.Dropped {
		t.Fatalf("%s@%.1fx: server shed %d != client dropped %d", pt.System, pt.Multiple, shed, r.Dropped)
	}
	for typ := 0; typ < 2; typ++ {
		slot := pt.Admission.Slots[typ]
		if got, want := r.DroppedByType[typ], slot.ShedDeadline+slot.ShedOverload+slot.ShedLost; got != want {
			t.Fatalf("%s@%.1fx type %d: client dropped %d, server shed %d",
				pt.System, pt.Multiple, typ, got, want)
		}
	}
}

// TestOverloadExperiment is the PR's acceptance experiment: at 2x the
// derated capacity, DARC with admission control keeps the short
// class's answered-request p99 within 3x of its own 0.8x-load
// baseline, while unprotected c-FCFS blows past 10x of that baseline.
// Ledger conservation is checked exactly at every point.
func TestOverloadExperiment(t *testing.T) {
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 700 * time.Millisecond
	}
	const seed = 7
	darcAdmission, cfcfs := overloadSystems[0], overloadSystems[2]

	baseline, err := runOverloadPoint(darcAdmission, 0.8, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	requireConservation(t, baseline)
	protected, err := runOverloadPoint(darcAdmission, 2.0, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	requireConservation(t, protected)
	unprotected, err := runOverloadPoint(cfcfs, 2.0, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	requireConservation(t, unprotected)

	base := baseline.shortP99()
	if base <= 0 {
		t.Fatalf("baseline short p99 %v (n=%d): no signal", base, baseline.Res.Latency[0].Count())
	}
	t.Logf("short p99: baseline(0.8x)=%v darc+admission(2.0x)=%v cfcfs(2.0x)=%v",
		base, protected.shortP99(), unprotected.shortP99())

	if got, limit := protected.shortP99(), 3*base; got > limit {
		t.Errorf("darc+admission at 2.0x: short p99 %v exceeds 3x baseline (%v)", got, limit)
	}
	if got, floor := unprotected.shortP99(), 10*base; got <= floor {
		t.Errorf("cfcfs at 2.0x: short p99 %v did not exceed 10x baseline (%v) — no overload signal", got, floor)
	}
	// The protection must come from actual shedding: at 2x the
	// admission controller has to have refused a meaningful share.
	if protected.Admission == nil {
		t.Fatal("darc+admission point lost its admission ledger")
	}
	if shed := protected.Admission.Totals().Shed(); shed == 0 {
		t.Error("darc+admission at 2.0x shed nothing; the load never exercised admission")
	}
}
