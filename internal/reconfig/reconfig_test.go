package reconfig

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestParseSpecFull(t *testing.T) {
	sp, err := ParseSpec(map[string]string{
		"policy":              "darc-static",
		"workers":             "6",
		"static-reserved":     "2",
		"static-means":        "5us,500us",
		"admission":           "3ms,0,50ms",
		"unknown-budget":      "10ms",
		"admission-trim":      "1ms",
		"admission-automult":  "25",
		"admission-minbudget": "2ms",
		"darc-update":         "true",
		"drain":               "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Policy == nil || sp.Policy.Kind != sched.KindDARCStatic || sp.Policy.StaticReserved != 2 {
		t.Fatalf("policy: %+v", sp.Policy)
	}
	if len(sp.Policy.StaticMeans) != 2 || sp.Policy.StaticMeans[1] != 500*time.Microsecond {
		t.Fatalf("static means: %v", sp.Policy.StaticMeans)
	}
	if sp.Workers == nil || *sp.Workers != 6 {
		t.Fatalf("workers: %v", sp.Workers)
	}
	a := sp.Admission
	if a == nil || len(a.Budgets) != 3 || a.Budgets[1] != 0 || a.Budgets[2] != 50*time.Millisecond {
		t.Fatalf("admission budgets: %+v", a)
	}
	if *a.UnknownBudget != 10*time.Millisecond || *a.OverloadDelay != time.Millisecond ||
		*a.AutoMult != 25 || *a.MinBudget != 2*time.Millisecond {
		t.Fatalf("admission knobs: %+v", a)
	}
	if !sp.ForceDARCUpdate || sp.DrainDeadline != 2*time.Second {
		t.Fatalf("force/drain: %+v", sp)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []map[string]string{
		{},                             // empty spec
		{"workers": "0"},               // non-positive
		{"workers": "x"},               // non-integer
		{"static-reserved": "1"},       // policy knob without policy=
		{"admission": "-3ms"},          // negative budget
		{"bogus": "1"},                 // unknown key
		{"drain": "-1s"},               // negative deadline
		{"admission-automult": "-2"},   // non-positive multiplier
		{"admission-automult": "NaN"},  // not a number
		{"admission-automult": "Inf"},  // infinite
		{"admission-automult": "inf"},  // infinite, lower case
		{"admission-automult": "+Inf"}, // infinite, signed
	}
	for _, kv := range cases {
		if _, err := ParseSpec(kv); err == nil {
			t.Errorf("ParseSpec(%v) accepted, want error", kv)
		}
	}
}

func TestParseSpecFile(t *testing.T) {
	sp, err := ParseSpecFile(`
# soak reload profile
policy = cfcfs   # back to the baseline
workers = 3
drain = 500ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Policy.Kind != sched.KindCFCFS || *sp.Workers != 3 || sp.DrainDeadline != 500*time.Millisecond {
		t.Fatalf("parsed: %+v", sp)
	}
	if _, err := ParseSpecFile("policy=darc\npolicy=cfcfs\n"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := ParseSpecFile("not a pair\n"); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// fakeTarget records the last spec and returns canned answers.
type fakeTarget struct {
	last Spec
	err  error
}

func (f *fakeTarget) Reconfigure(sp Spec) (Result, error) {
	f.last = sp
	if f.err != nil {
		return Result{}, f.err
	}
	return Result{Generation: 7, Applied: []string{"policy cfcfs"}}, nil
}

func (f *fakeTarget) ConfigSnapshot() Snapshot {
	return Snapshot{Policy: "DARC", Workers: 4, Generation: 6}
}

func TestAdminHandler(t *testing.T) {
	ft := &fakeTarget{}
	srv := httptest.NewServer(AdminHandler(ft))
	defer srv.Close()

	// GET /admin/config round-trips the snapshot.
	resp, err := http.Get(srv.URL + "/admin/config")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Policy != "DARC" || snap.Workers != 4 {
		t.Fatalf("snapshot: %+v", snap)
	}

	// POST /admin/reconfig applies a parsed spec.
	resp, err = http.PostForm(srv.URL+"/admin/reconfig",
		url.Values{"policy": {"cfcfs"}, "workers": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || res.Generation != 7 {
		t.Fatalf("status %d result %+v", resp.StatusCode, res)
	}
	if ft.last.Policy.Kind != sched.KindCFCFS || *ft.last.Workers != 2 {
		t.Fatalf("spec delivered: %+v", ft.last)
	}

	// Malformed spec: 400 before the target is consulted.
	resp, _ = http.PostForm(srv.URL+"/admin/reconfig", url.Values{"workers": {"zero"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Target rejection: 409 with the server's error text.
	ft.err = errTest
	resp, _ = http.PostForm(srv.URL+"/admin/reconfig", url.Values{"policy": {"warp"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejected spec: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong methods.
	resp, _ = http.Post(srv.URL+"/admin/config", "text/plain", strings.NewReader(""))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /admin/config: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/admin/reconfig")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reconfig: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

var errTest = errorString("no such policy")

type errorString string

func (e errorString) Error() string { return string(e) }
