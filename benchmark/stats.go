package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method of Python's
// statistics.quantiles). xs is sorted in place; empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsToMS converts nanosecond samples to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
