// Package workload defines request-type mixes and open-loop arrival
// processes for both the simulator and the live runtime. The
// predefined mixes are the paper's Table 3 (High/Extreme Bimodal),
// Table 4 (TPC-C) and §5.4.4 (RocksDB) workloads.
package workload

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// TypeSpec describes one request type in a mix.
type TypeSpec struct {
	// Name identifies the type in reports ("GET", "Payment", ...).
	Name string
	// Ratio is the type's occurrence share of the mix; ratios across a
	// mix must sum to ~1.
	Ratio float64
	// Service is the service-time distribution. The paper's synthetic
	// workloads use fixed (degenerate) service times.
	Service rng.Dist
}

// Mix is a complete workload: a named set of request types.
type Mix struct {
	Name  string
	Types []TypeSpec
}

// Validate checks that the mix is well formed: non-empty, positive
// ratios summing to 1 (within tolerance), and positive mean service
// times.
func (m Mix) Validate() error {
	if len(m.Types) == 0 {
		return fmt.Errorf("workload %q: no request types", m.Name)
	}
	var sum float64
	for i, t := range m.Types {
		if t.Ratio <= 0 {
			return fmt.Errorf("workload %q: type %d (%s) has non-positive ratio %g", m.Name, i, t.Name, t.Ratio)
		}
		if t.Service == nil {
			return fmt.Errorf("workload %q: type %d (%s) has no service distribution", m.Name, i, t.Name)
		}
		if t.Service.Mean() <= 0 {
			return fmt.Errorf("workload %q: type %d (%s) has non-positive mean service", m.Name, i, t.Name)
		}
		sum += t.Ratio
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %q: ratios sum to %g, want 1", m.Name, sum)
	}
	return nil
}

// MeanService reports the mix's average service time, Σ ratio·mean.
func (m Mix) MeanService() time.Duration {
	var mean float64
	for _, t := range m.Types {
		mean += t.Ratio * float64(t.Service.Mean())
	}
	return time.Duration(mean)
}

// Means reports each type's mean service time, indexed by type ID.
func (m Mix) Means() []time.Duration {
	out := make([]time.Duration, len(m.Types))
	for i, t := range m.Types {
		out[i] = t.Service.Mean()
	}
	return out
}

// PeakLoad reports the saturation arrival rate (requests/second) for a
// machine with the given number of workers: W / E[S].
func (m Mix) PeakLoad(workers int) float64 {
	mean := m.MeanService()
	if mean <= 0 {
		return 0
	}
	return float64(workers) / mean.Seconds()
}

// Dispersion reports the ratio between the largest and smallest mean
// per-type service time, the paper's headline workload property.
func (m Mix) Dispersion() float64 {
	if len(m.Types) == 0 {
		return 0
	}
	lo, hi := m.Types[0].Service.Mean(), m.Types[0].Service.Mean()
	for _, t := range m.Types[1:] {
		if s := t.Service.Mean(); s < lo {
			lo = s
		} else if s > hi {
			hi = s
		}
	}
	if lo <= 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// TypeNames returns the type names in index order.
func (m Mix) TypeNames() []string {
	names := make([]string, len(m.Types))
	for i, t := range m.Types {
		names[i] = t.Name
	}
	return names
}

// IndexOf returns the index of the named type, or -1.
func (m Mix) IndexOf(name string) int {
	for i, t := range m.Types {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// HighBimodal is the paper's Table 3 workload with 100x dispersion:
// 50% 1µs requests and 50% 100µs requests.
func HighBimodal() Mix {
	return Mix{
		Name: "HighBimodal",
		Types: []TypeSpec{
			{Name: "short", Ratio: 0.5, Service: rng.Fixed(1 * time.Microsecond)},
			{Name: "long", Ratio: 0.5, Service: rng.Fixed(100 * time.Microsecond)},
		},
	}
}

// ExtremeBimodal is the paper's Table 3 workload with 1000x dispersion:
// 99.5% 0.5µs requests and 0.5% 500µs requests.
func ExtremeBimodal() Mix {
	return Mix{
		Name: "ExtremeBimodal",
		Types: []TypeSpec{
			{Name: "short", Ratio: 0.995, Service: rng.Fixed(500 * time.Nanosecond)},
			{Name: "long", Ratio: 0.005, Service: rng.Fixed(500 * time.Microsecond)},
		},
	}
}

// TPCC is the paper's Table 4 workload: the five TPC-C transactions
// with service times profiled on an in-memory database.
func TPCC() Mix {
	return Mix{
		Name: "TPC-C",
		Types: []TypeSpec{
			{Name: "Payment", Ratio: 0.44, Service: rng.Fixed(5700 * time.Nanosecond)},
			{Name: "OrderStatus", Ratio: 0.04, Service: rng.Fixed(6 * time.Microsecond)},
			{Name: "NewOrder", Ratio: 0.44, Service: rng.Fixed(20 * time.Microsecond)},
			{Name: "Delivery", Ratio: 0.04, Service: rng.Fixed(88 * time.Microsecond)},
			{Name: "StockLevel", Ratio: 0.04, Service: rng.Fixed(100 * time.Microsecond)},
		},
	}
}

// RocksDB is the paper's §5.4.4 workload: 50% GETs (1.5µs) and 50%
// SCANs over 5000 keys (635µs), a 420x dispersion.
func RocksDB() Mix {
	return Mix{
		Name: "RocksDB",
		Types: []TypeSpec{
			{Name: "GET", Ratio: 0.5, Service: rng.Fixed(1500 * time.Nanosecond)},
			{Name: "SCAN", Ratio: 0.5, Service: rng.Fixed(635 * time.Microsecond)},
		},
	}
}

// TwoType builds a generic two-type mix, used by the workload-change
// experiment (Figure 7) where the two types swap roles across phases.
func TwoType(nameA string, serviceA time.Duration, ratioA float64, nameB string, serviceB time.Duration) Mix {
	return Mix{
		Name: fmt.Sprintf("%s/%s", nameA, nameB),
		Types: []TypeSpec{
			{Name: nameA, Ratio: ratioA, Service: rng.Fixed(serviceA)},
			{Name: nameB, Ratio: 1 - ratioA, Service: rng.Fixed(serviceB)},
		},
	}
}
