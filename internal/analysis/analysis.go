// Package analysis provides the small numeric helpers the experiment
// harness uses to post-process series: summaries, argmin, trends and
// relative comparisons.
package analysis

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// Std returns the population standard deviation (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// ArgMin returns the index of the smallest value (-1 for empty input).
// Ties resolve to the first occurrence.
func ArgMin(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best == -1 || x < xs[best] {
			best = i
		}
	}
	return best
}

// Improvement returns the relative improvement of candidate over baseline
// for a lower-is-better metric, e.g. 0.13 when the candidate is 13%
// faster. It returns an error when the baseline is non-positive.
func Improvement(baseline, candidate float64) (float64, error) {
	if baseline <= 0 {
		return 0, fmt.Errorf("analysis: baseline must be positive, got %v", baseline)
	}
	return (baseline - candidate) / baseline, nil
}

// Trend fits a least-squares line to (0..n-1, xs) and returns its slope;
// a clearly positive slope on a queue series indicates instability.
func Trend(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range xs {
		x := float64(i)
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return 0
	}
	return (float64(n*sxy) - float64(sx*sy)) / den
}
