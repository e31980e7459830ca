package sched

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind names a scheduling policy: the four the core runs live, then
// the ones only the simulator implements.
type Kind uint8

// The live kinds come first, in Mode's order, so a live kind converts
// to its Mode directly.
const (
	KindDARC Kind = iota
	KindCFCFS
	KindDFCFS
	KindDARCStatic
	KindDARCElastic
	KindShenango
	KindShinjukuSQ
	KindShinjukuMQ
	KindTSIdeal
	KindFP
	KindSJF
	KindEDF
	KindDRR
	numKinds
)

// kindNames holds each kind's canonical name, the one String and the
// simulator's reports print.
var kindNames = [numKinds]string{
	KindDARC:        "darc",
	KindCFCFS:       "cfcfs",
	KindDFCFS:       "dfcfs",
	KindDARCStatic:  "darc-static",
	KindDARCElastic: "darc-elastic",
	KindShenango:    "shenango",
	KindShinjukuSQ:  "shinjuku-sq",
	KindShinjukuMQ:  "shinjuku-mq",
	KindTSIdeal:     "ts-ideal",
	KindFP:          "fp",
	KindSJF:         "sjf",
	KindEDF:         "edf",
	KindDRR:         "drr",
}

// String returns the kind's canonical name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Spec selects a scheduling policy: a kind plus the arguments its
// kind reads. The zero value is DARC. ParseSpec reads the text form
// and String writes it; policy.Constructor binds a Spec to a simulated
// machine, and Mode gives the live dispatcher's form.
type Spec struct {
	Kind Kind
	// StaticReserved is darc-static's argument: workers reserved for
	// the statically shortest type (0 degenerates to fixed priority).
	StaticReserved int
	// PreemptOverhead is ts-ideal's argument: the total preemption
	// overhead charged per context switch.
	PreemptOverhead time.Duration
	// Quantum is shinjuku-sq's and shinjuku-mq's argument: the
	// preemption interval (0 keeps Shinjuku's 5 µs).
	Quantum time.Duration
	// SteerSeed seeds d-FCFS's per-arrival worker steering (0 keeps the
	// default stream). It has no text form: reconfiguration's
	// steer-seed= key and the conformance harness set it.
	SteerSeed uint64
}

// ErrNoLiveForm reports a policy only the simulator implements.
var ErrNoLiveForm = errors.New("no live form")

// Names lists the policies ParseSpec accepts, by canonical name, with
// the argument placeholder of each kind that takes one.
func Names() []string {
	names := kindNames // a copy: the canonical names stay as they are
	names[KindDARCStatic] += ":N"
	names[KindShinjukuSQ] += ":Nus"
	names[KindShinjukuMQ] += ":Nus"
	names[KindTSIdeal] += ":Nus"
	return names[:]
}

// LiveSpecs lists one Spec per kind with a live form, in Mode order.
func LiveSpecs() []Spec {
	var out []Spec
	for k := KindDARC; k <= KindDARCStatic; k++ {
		out = append(out, Spec{Kind: k})
	}
	return out
}

// ParseSpec parses a policy name with its optional argument,
// case-insensitively and ignoring surrounding space:
//
//	darc               the paper's policy with default tuning
//	darc-static:N      N workers statically reserved for the shortest type
//	darc-elastic       DARC that lends idle reserved workers
//	cfcfs              centralized FCFS (also c-fcfs)
//	dfcfs              decentralized FCFS (RSS; also d-fcfs)
//	shenango           per-core queues + work stealing (also work-stealing)
//	shinjuku-sq[:Nus]  preemptive single queue, N µs quantum (also ts-sq)
//	shinjuku-mq[:Nus]  preemptive multi-queue BVT, N µs quantum (also ts-mq)
//	ts-ideal[:Nus]     idealized preemption with N µs total overhead
//	fp                 non-preemptive fixed priority (also fixed-priority)
//	sjf, edf, drr      oracle SJF, earliest deadline first, deficit round robin
//
// The empty string is darc. A Shinjuku kind without :Nus (or with
// :0us) runs the paper's 5 µs quantum. The four live kinds also match
// with their hyphens dropped or moved ("darcstatic", "c-f-cfs"), and
// darc-static without :N reserves no worker: that is how the
// reconfiguration plane's policy= key has always read them, with
// static-reserved= supplying N. Validation that depends on the
// machine (N <= workers) happens where the Spec is bound.
func ParseSpec(text string) (Spec, error) {
	name, arg, hasArg := strings.Cut(strings.ToLower(strings.TrimSpace(text)), ":")
	switch name {
	case "":
		name = "darc"
	case "work-stealing":
		name = "shenango"
	case "ts-sq":
		name = "shinjuku-sq"
	case "ts-mq":
		name = "shinjuku-mq"
	case "fixed-priority":
		name = "fp"
	}
	s, ok := Spec{}, false
	for k := Kind(0); k < numKinds && !ok; k++ {
		s.Kind, ok = k, name == k.String()
	}
	for k := Kind(0); k <= KindDARCStatic && !ok && !hasArg; k++ {
		s.Kind, ok = k, strings.ReplaceAll(name, "-", "") == strings.ReplaceAll(k.String(), "-", "")
	}
	if !ok {
		return Spec{}, fmt.Errorf("sched: unknown policy %q (have %v)", text, Names())
	}
	switch {
	case !hasArg:
	case s.Kind == KindDARCStatic:
		reserved, err := strconv.Atoi(arg)
		if err != nil || reserved < 0 {
			return Spec{}, fmt.Errorf("sched: darc-static needs :N with N>=0, got %q", arg)
		}
		s.StaticReserved = reserved
	case s.Kind == KindTSIdeal || s.Kind == KindShinjukuSQ || s.Kind == KindShinjukuMQ:
		us, err := strconv.ParseFloat(strings.TrimSuffix(arg, "us"), 64)
		// The bound rejects NaN and infinities too (NaN fails every
		// comparison, so "us < 0" alone would let it through into an
		// undefined float→Duration conversion). 1e9µs ≈ 17min is far
		// beyond any plausible preemption overhead or quantum.
		if err != nil || math.IsNaN(us) || us < 0 || us > 1e9 {
			return Spec{}, fmt.Errorf("sched: %s needs :Nus, got %q", s.Kind, arg)
		}
		d := time.Duration(us * float64(time.Microsecond))
		if s.Kind == KindTSIdeal {
			s.PreemptOverhead = d
		} else {
			s.Quantum = d
		}
	default:
		return Spec{}, fmt.Errorf("sched: policy %q takes no argument, got %q", s.Kind, arg)
	}
	return s, nil
}

// String renders the spec in the canonical grammar ParseSpec accepts.
func (s Spec) String() string {
	switch {
	case s.Kind == KindDARCStatic:
		return fmt.Sprintf("darc-static:%d", s.StaticReserved)
	case s.Kind == KindTSIdeal && s.PreemptOverhead > 0:
		return fmt.Sprintf("ts-ideal:%gus", float64(s.PreemptOverhead)/float64(time.Microsecond))
	case (s.Kind == KindShinjukuSQ || s.Kind == KindShinjukuMQ) && s.Quantum > 0:
		return fmt.Sprintf("%s:%gus", s.Kind, float64(s.Quantum)/float64(time.Microsecond))
	}
	return s.Kind.String()
}

// Mode returns the dispatch mode the live runtime runs s under. Only
// DARC, c-FCFS, d-FCFS and DARC-static have one; every other kind
// returns an error wrapping ErrNoLiveForm.
func (s Spec) Mode() (Mode, error) {
	if s.Kind > KindDARCStatic {
		return 0, fmt.Errorf("sched: policy %s: %w (live policies: darc, cfcfs, dfcfs, darc-static)", s, ErrNoLiveForm)
	}
	return Mode(s.Kind), nil
}
