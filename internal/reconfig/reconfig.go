// Package reconfig defines the live runtime's control plane: the
// declarative Spec an operator submits to change a running server
// (scheduling policy, worker population, admission budgets, DARC
// reservation refresh), the Result and Snapshot the server answers
// with, and the transports that carry them — an admin HTTP handler
// (POST /admin/reconfig, GET /admin/config) and a key=value config
// file format for SIGHUP reloads.
//
// The package is deliberately mechanism-free: internal/psp implements
// the Target interface and owns the request-safe handoff (no enqueue
// lost, no double-dispatch, graceful drain of retiring workers);
// reconfig only describes *what* to change and ferries the answer.
package reconfig

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
)

// PolicyChange asks for a scheduling-policy swap to the embedded
// sched.Spec, the one policy vocabulary the simulator and the live
// server share. Only kinds with a live form apply (sched.Spec.Mode);
// the server refuses the rest. StaticReserved configures darc-static,
// and a non-zero SteerSeed reseeds d-FCFS steering (0 keeps the
// current stream).
type PolicyChange struct {
	sched.Spec
	// StaticMeans gives darc-static its per-type service times (nil
	// keeps the server's); it must cover every request type.
	StaticMeans []time.Duration
	// Err is why the policy= text did not parse. ParseSpec keeps it
	// here rather than failing, so the server refuses the spec like
	// any other policy it cannot run.
	Err error
}

// AdmissionChange adjusts the admission controller's policy. Nil
// pointer fields keep the current value; a non-nil Budgets slice
// replaces the per-type budget table wholesale (zero entries revert
// that type to auto-derivation).
type AdmissionChange struct {
	Budgets       []time.Duration
	UnknownBudget *time.Duration
	OverloadDelay *time.Duration
	AutoMult      *float64
	MinBudget     *time.Duration
}

// Spec is one atomic reconfiguration request. Every non-nil field is
// applied in a single pass on the dispatcher's thread of control —
// admission first, then the DARC refresh, then the policy swap, then
// the worker resize — so no request ever observes a half-applied
// configuration.
type Spec struct {
	// Policy swaps the scheduling policy (nil keeps the current one).
	Policy *PolicyChange
	// Workers resizes the worker pool (nil keeps the current size).
	// Shrinks retire the highest-numbered workers gracefully: they
	// finish their in-flight request, then exit; the call returns when
	// the last retiree has drained.
	Workers *int
	// Admission adjusts admission budgets (nil keeps the policy;
	// rejected if the server was built without admission control).
	Admission *AdmissionChange
	// ForceDARCUpdate recomputes the DARC reservation from the current
	// profiling window immediately, regardless of update triggers.
	ForceDARCUpdate bool
	// DrainDeadline bounds how long a shrink is expected to wait for
	// retiring workers (0 = DefaultDrainDeadline). The drain always
	// runs to completion — a worker mid-request cannot be preempted —
	// but a wait beyond the deadline is flagged on the Result and
	// counted by the soak harness as a violation.
	DrainDeadline time.Duration
}

// DefaultDrainDeadline bounds shrink drains when the Spec leaves
// DrainDeadline zero.
const DefaultDrainDeadline = 5 * time.Second

// Empty reports whether the spec asks for nothing.
func (sp Spec) Empty() bool {
	return sp.Policy == nil && sp.Workers == nil && sp.Admission == nil && !sp.ForceDARCUpdate
}

// Result reports what one Reconfigure application did.
type Result struct {
	// Generation is the server's configuration generation after this
	// spec applied (monotonic; bumped once per applied spec).
	Generation uint64 `json:"generation"`
	// Applied lists human-readable descriptions of each change made.
	Applied []string `json:"applied,omitempty"`
	// Migrated counts queued requests moved between queue families by
	// a policy swap; MigratedShed counts the ones the target family
	// had no room for (answered as shed/dropped, never silently lost).
	Migrated     int `json:"migrated,omitempty"`
	MigratedShed int `json:"migrated_shed,omitempty"`
	// Retired and Added count workers leaving/joining the pool.
	Retired int `json:"retired,omitempty"`
	Added   int `json:"added,omitempty"`
	// DrainWait is how long the shrink waited for retiring workers to
	// finish their in-flight requests; DrainDeadlineExceeded flags a
	// wait beyond the spec's deadline.
	DrainWait             time.Duration `json:"drain_wait_ns,omitempty"`
	DrainDeadlineExceeded bool          `json:"drain_deadline_exceeded,omitempty"`
}

// Snapshot is the server's current configuration as reported by GET
// /admin/config.
type Snapshot struct {
	Policy     string        `json:"policy"`
	Workers    int           `json:"workers"`
	Generation uint64        `json:"generation"`
	Admission  bool          `json:"admission"`
	Budgets    []string      `json:"budgets,omitempty"`
	Overload   time.Duration `json:"overload_threshold_ns,omitempty"`
}

// Target is the live server as the control plane sees it;
// *psp.Server implements it.
type Target interface {
	Reconfigure(Spec) (Result, error)
	ConfigSnapshot() Snapshot
}

// ParseSpec builds a Spec from key=value pairs — the admin endpoint's
// form fields and the config file's lines share this vocabulary:
//
//	policy=darc|cfcfs|dfcfs|darc-static   target policy (sched.ParseSpec)
//	workers=N                             target worker-pool size
//	static-reserved=N                     darc-static reserved cores
//	static-means=5us,500us                darc-static per-type means
//	steer-seed=N                          d-fcfs steering reseed
//	admission=3ms,0,50ms                  per-type budgets (0 = auto)
//	unknown-budget=10ms                   unclassified-request budget
//	admission-trim=1ms                    sustained-overload threshold
//	admission-automult=20                 auto-budget multiplier
//	admission-minbudget=1ms               auto-budget floor
//	darc-update=true                      force a reservation refresh
//	drain=2s                              shrink drain deadline
func ParseSpec(kv map[string]string) (Spec, error) {
	var sp Spec
	pol := func() *PolicyChange {
		if sp.Policy == nil {
			sp.Policy = &PolicyChange{}
		}
		return sp.Policy
	}
	adm := func() *AdmissionChange {
		if sp.Admission == nil {
			sp.Admission = &AdmissionChange{}
		}
		return sp.Admission
	}
	// Deterministic application order so error messages are stable.
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := strings.TrimSpace(kv[k])
		var err error
		switch k {
		case "policy":
			pol().Spec, pol().Err = sched.ParseSpec(v)
		case "workers":
			n, perr := strconv.Atoi(v)
			if perr != nil || n <= 0 {
				return Spec{}, fmt.Errorf("reconfig: workers=%q (want a positive integer)", v)
			}
			sp.Workers = &n
		case "static-reserved":
			pol().StaticReserved, err = strconv.Atoi(v)
			if err != nil || pol().StaticReserved < 0 {
				return Spec{}, fmt.Errorf("reconfig: static-reserved=%q (want a non-negative integer)", v)
			}
		case "static-means":
			pol().StaticMeans, err = parseDurations(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: static-means: %v", err)
			}
		case "steer-seed":
			pol().SteerSeed, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: steer-seed=%q (want an unsigned integer)", v)
			}
		case "admission":
			adm().Budgets, err = parseDurations(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: admission: %v", err)
			}
		case "unknown-budget":
			adm().UnknownBudget, err = parseDurationPtr(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: unknown-budget: %v", err)
			}
		case "admission-trim":
			adm().OverloadDelay, err = parseDurationPtr(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: admission-trim: %v", err)
			}
		case "admission-automult":
			// ParseFloat accepts NaN and Inf, and NaN <= 0 is false.
			f, perr := strconv.ParseFloat(v, 64)
			if perr != nil || !(f > 0) || math.IsInf(f, 0) {
				return Spec{}, fmt.Errorf("reconfig: admission-automult=%q (want a positive finite number)", v)
			}
			adm().AutoMult = &f
		case "admission-minbudget":
			adm().MinBudget, err = parseDurationPtr(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: admission-minbudget: %v", err)
			}
		case "darc-update":
			sp.ForceDARCUpdate, err = strconv.ParseBool(v)
			if err != nil {
				return Spec{}, fmt.Errorf("reconfig: darc-update=%q (want a boolean)", v)
			}
		case "drain":
			sp.DrainDeadline, err = time.ParseDuration(v)
			if err != nil || sp.DrainDeadline < 0 {
				return Spec{}, fmt.Errorf("reconfig: drain=%q (want a non-negative duration)", v)
			}
		default:
			return Spec{}, fmt.Errorf("reconfig: unknown key %q", k)
		}
	}
	if sp.Policy != nil && strings.TrimSpace(kv["policy"]) == "" {
		return Spec{}, fmt.Errorf("reconfig: static-reserved/static-means/steer-seed need policy=")
	}
	if sp.Empty() {
		return Spec{}, fmt.Errorf("reconfig: empty spec (nothing to change)")
	}
	return sp, nil
}

// ParseSpecFile decodes the SIGHUP config-file format: one key=value
// per line, '#' comments, blank lines ignored. The vocabulary is
// ParseSpec's.
func ParseSpecFile(text string) (Spec, error) {
	kv := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		if i := strings.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		k, v, ok := strings.Cut(raw, "=")
		if !ok {
			return Spec{}, fmt.Errorf("reconfig: line %d: %q is not key=value", line, raw)
		}
		k = strings.TrimSpace(k)
		if _, dup := kv[k]; dup {
			return Spec{}, fmt.Errorf("reconfig: line %d: duplicate key %q", line, k)
		}
		kv[k] = strings.TrimSpace(v)
	}
	if err := sc.Err(); err != nil {
		return Spec{}, err
	}
	return ParseSpec(kv)
}

// parseDurations decodes a comma-separated duration list; bare "0"
// entries are allowed (meaning "auto" for budgets, and are invalid to
// reject here since both uses accept zero).
func parseDurations(v string) ([]time.Duration, error) {
	parts := strings.Split(v, ",")
	out := make([]time.Duration, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "0" {
			continue
		}
		d, err := time.ParseDuration(p)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %v", i, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("entry %d: negative duration %v", i, d)
		}
		out[i] = d
	}
	return out, nil
}

func parseDurationPtr(v string) (*time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return nil, err
	}
	if d < 0 {
		return nil, fmt.Errorf("negative duration %v", d)
	}
	return &d, nil
}
