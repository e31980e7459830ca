package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/conformance"
	"repro/internal/sched"
)

// conformCmd runs the live↔sim differential conformance harness: the
// clean matrix (every canonical trace × every policy) or, with
// -mutate, the mutation matrix (every catalogue entry, which the
// comparator must flag). It prints per-case divergence reports and,
// with -md, EXPERIMENTS.md-ready agreement tables. It exits 1 unless
// every clean case agrees and, under -mutate, every mutation is
// detected. Its lines keep the psp-conform: prefix that scripts read.
func conformCmd(fs *flag.FlagSet) func() error {
	traces := fs.String("traces", "all", "comma-separated canonical traces (bimodal,exp,tpcc) or all")
	policies := fs.String("policies", "all", "comma-separated policies (darc,darc-static,cfcfs,dfcfs) or all")
	seed := seedFlag(fs, 0)
	mutate := fs.Bool("mutate", false, "run the mutation matrix (detection trials) instead of the clean matrix")
	seeds := fs.Int("seeds", 1, "number of seeds for the mutation matrix")
	md := fs.Bool("md", false, "print markdown agreement tables per case")
	return func() error {
		w := os.Stdout
		specs, err := pickSpecs(*traces)
		if err != nil {
			fmt.Fprintln(w, "psp-conform:", err)
			return errFailed
		}
		if *mutate {
			return runMutations(w, specs, *seeds, *md)
		}
		pols, err := pickPolicies(*policies)
		if err != nil {
			fmt.Fprintln(w, "psp-conform:", err)
			return errFailed
		}
		failures := 0
		for _, spec := range specs {
			for _, pol := range pols {
				s := spec.Seed
				if *seed != 0 {
					s = *seed
				}
				rep, err := runCaseRetrying(w, spec, pol, s)
				if err != nil {
					fmt.Fprintf(w, "psp-conform: %s/%s: %v\n", spec.Name, pol.Kind, err)
					failures++
					continue
				}
				fmt.Fprint(w, rep.String())
				if *md {
					fmt.Fprintln(w, rep.MarkdownTable())
				}
				if !rep.Agree() {
					failures++
				}
			}
		}
		if failures > 0 {
			fmt.Fprintf(w, "psp-conform: %d case(s) diverged\n", failures)
			return errFailed
		}
		fmt.Fprintln(w, "psp-conform: all cases agree")
		return nil
	}
}

// runCaseRetrying runs one clean case, retrying exactly once when the
// only divergences are quantile-band misses: on virtualised hosts a
// transient freeze starves the live server and inflates its queue
// delays wholesale while every structural invariant holds (see
// Report.StatisticalOnly). Structural divergences are never retried.
func runCaseRetrying(w io.Writer, spec conformance.TraceSpec, pol sched.Spec, seed uint64) (*conformance.Report, error) {
	rep, err := conformance.RunCase(spec, pol, seed)
	if err != nil {
		return nil, err
	}
	if rep.StatisticalOnly() {
		fmt.Fprintf(w, "RETRY   trace=%s policy=%s seed=%d statistical-only divergence (host stall?)\n",
			spec.Name, pol.Kind, seed)
		return conformance.RunCase(spec, pol, seed)
	}
	return rep, nil
}

// runMutations runs the detection trials: every catalogue mutation
// must be flagged, and the clean counterpart of every declared policy
// must not be (no false positives).
func runMutations(w io.Writer, specs []conformance.TraceSpec, seeds int, md bool) error {
	failures := 0
	for _, spec := range specs {
		for s := 0; s < max(seeds, 1); s++ {
			seed := spec.Seed + uint64(10+s)
			declared := map[sched.Spec]bool{}
			for _, mut := range conformance.Mutations() {
				declared[mut.Policy] = true
				rep, err := conformance.RunMutationCase(spec, mut, seed)
				if err != nil {
					fmt.Fprintf(w, "psp-conform: %s/%s seed=%d: %v\n", spec.Name, mut.Name, seed, err)
					failures++
					continue
				}
				if rep.Agree() {
					fmt.Fprintf(w, "MISSED  trace=%s mutation=%s seed=%d — comparator saw no divergence\n",
						spec.Name, mut.Name, seed)
					failures++
				} else {
					fmt.Fprintf(w, "CAUGHT  trace=%s mutation=%s seed=%d (%d divergence(s), first: %s)\n",
						spec.Name, mut.Name, seed, len(rep.Divergences), rep.Divergences[0])
				}
				if md {
					fmt.Fprintln(w, rep.MarkdownTable())
				}
			}
			// False-positive guard: the same seeds, unmutated.
			for pol := range declared {
				rep, err := runCaseRetrying(w, spec, pol, seed)
				if err != nil {
					fmt.Fprintf(w, "psp-conform: clean %s/%s seed=%d: %v\n", spec.Name, pol.Kind, seed, err)
					failures++
					continue
				}
				if !rep.Agree() {
					fmt.Fprintf(w, "FALSE-POSITIVE trace=%s policy=%s seed=%d:\n%s", spec.Name, pol.Kind, seed, rep.String())
					failures++
				} else {
					fmt.Fprintf(w, "CLEAN   trace=%s policy=%s seed=%d\n", spec.Name, pol.Kind, seed)
				}
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "psp-conform: %d detection failure(s)\n", failures)
		return errFailed
	}
	fmt.Fprintln(w, "psp-conform: every mutation detected, no false positives")
	return nil
}

// pickSpecs resolves -traces: a comma-separated list of canonical
// trace names, or all.
func pickSpecs(arg string) ([]conformance.TraceSpec, error) {
	if arg == "all" || arg == "" {
		return conformance.CanonicalSpecs(), nil
	}
	return parseList(arg, conformance.SpecByName)
}

// pickPolicies resolves -policies: a comma-separated list, or all.
// Each policy must have a live form (darc-static reserves its trace's
// StaticReserved workers).
func pickPolicies(arg string) ([]sched.Spec, error) {
	if arg == "all" || arg == "" {
		return conformance.Policies(), nil
	}
	return parseList(arg, func(name string) (sched.Spec, error) {
		p, err := sched.ParseSpec(name)
		if err == nil {
			_, err = p.Mode()
		}
		return p, err
	})
}
