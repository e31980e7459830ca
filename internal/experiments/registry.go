package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one paper artifact.
type Runner func(Options) ([]*Table, error)

// registry maps artifact identifiers to runners.
var registry = map[string]Runner{
	"table1":   func(Options) ([]*Table, error) { return []*Table{Table1()}, nil },
	"table3":   func(Options) ([]*Table, error) { return []*Table{Table3()}, nil },
	"table4":   func(Options) ([]*Table, error) { return []*Table{Table4()}, nil },
	"table5":   func(Options) ([]*Table, error) { return []*Table{Table5()}, nil },
	"figure1":  Figure1,
	"figure3":  Figure3,
	"figure4":  Figure4,
	"figure5a": Figure5a,
	"figure5b": Figure5b,
	"figure6":  Figure6,
	"figure7":  Figure7,
	"figure8":  Figure8,
	"figure9":  Figure9,
	"figure10": Figure10,
	// Ablations beyond the paper's figures, for the design choices
	// DESIGN.md calls out.
	"ablation-delta":      AblationDelta,
	"ablation-stealing":   AblationStealing,
	"ablation-dispatcher": AblationDispatcher,
	// Extensions probing DARC beyond the paper's evaluation.
	"ext-variance":   ExtVariance,
	"ext-burst":      ExtBurst,
	"ext-fanout":     ExtFanout,
	"ext-autoscale":  ExtAutoscale,
	"ext-fanout-sim": ExtFanoutSim,
	"ext-overload":   ExtOverload,
}

// Names lists the registered artifacts in order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run regenerates one artifact by name, printing it to w.
func Run(name string, opt Options, w io.Writer) error {
	r, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown artifact %q (have %v)", name, Names())
	}
	tables, err := r(opt)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", name, err)
	}
	return Emit(w, opt, tables...)
}
