package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs, which must be
// sorted; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantileOf sorts xs in place and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	slices.Sort(xs)
	return quantile(xs, q)
}

// median sorts xs in place and returns the middle value, or the mean
// of the two middle values; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
