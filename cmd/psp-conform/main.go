// Command psp-conform runs the live↔sim differential conformance
// harness from the command line: the clean matrix (every canonical
// trace × every policy) or the mutation matrix (every catalogue entry,
// which the comparator must flag). It prints per-case divergence
// reports and, with -md, EXPERIMENTS.md-ready agreement tables.
//
// Exit status: 0 when every clean case agrees (and, under -mutate,
// every mutation is detected); 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/conformance"
	"repro/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("psp-conform", flag.ExitOnError)
	traces := fs.String("traces", "all", "comma-separated canonical traces (bimodal,exp,tpcc) or all")
	policies := fs.String("policies", "all", "comma-separated policies (darc,darc-static,cfcfs,dfcfs) or all")
	seed := fs.Uint64("seed", 0, "override the trace seed (0 = each spec's pinned seed)")
	mutate := fs.Bool("mutate", false, "run the mutation matrix (detection trials) instead of the clean matrix")
	seeds := fs.Int("seeds", 1, "number of seeds for the mutation matrix")
	md := fs.Bool("md", false, "print markdown agreement tables per case")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	specs, err := pickSpecs(*traces)
	if err != nil {
		fmt.Fprintln(w, "psp-conform:", err)
		return 1
	}
	if *mutate {
		return runMutations(w, specs, *seeds, *md)
	}
	pols, err := pickPolicies(*policies)
	if err != nil {
		fmt.Fprintln(w, "psp-conform:", err)
		return 1
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
		return 1
	}
	fmt.Fprintln(w, "psp-conform: all cases agree")
	return 0
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
func runMutations(w io.Writer, specs []conformance.TraceSpec, seeds int, md bool) int {
	if seeds < 1 {
		seeds = 1
	}
	failures := 0
	for _, spec := range specs {
		for s := 0; s < seeds; s++ {
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
		return 1
	}
	fmt.Fprintln(w, "psp-conform: every mutation detected, no false positives")
	return 0
}

func pickSpecs(arg string) ([]conformance.TraceSpec, error) {
	if arg == "all" || arg == "" {
		return conformance.CanonicalSpecs(), nil
	}
	var out []conformance.TraceSpec
	for _, name := range strings.Split(arg, ",") {
		spec, err := conformance.SpecByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// pickPolicies parses a comma-separated policy list; each must have a
// live form (darc-static reserves its trace's StaticReserved workers).
func pickPolicies(arg string) ([]sched.Spec, error) {
	if arg == "all" || arg == "" {
		return conformance.Policies(), nil
	}
	var out []sched.Spec
	for _, name := range strings.Split(arg, ",") {
		p, err := sched.ParseSpec(name)
		if err == nil {
			_, err = p.Mode()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
