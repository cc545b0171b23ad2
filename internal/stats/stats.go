// Package stats provides the small set of summary statistics the experiment
// harness and the serving loop report: mean, median, percentiles, min/max
// and Jain's fairness index.
package stats

import (
	"errors"
	"math"
	"sort"
)

// number covers the numeric types the harness aggregates.
type number interface {
	~int | ~int32 | ~int64 | ~float64
}

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean.
func Mean[T number](xs []T) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs)), nil
}

// sorted returns a sorted float64 copy.
func sorted[T number](xs []T) []float64 {
	c := make([]float64, len(xs))
	for i, x := range xs {
		c[i] = float64(x)
	}
	sort.Float64s(c)
	return c
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func Percentile[T number](xs []T, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0, 100]")
	}
	c := sorted(xs)
	if len(c) == 1 {
		return c[0], nil
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo], nil
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac, nil
}

// Median returns the 50th percentile.
func Median[T number](xs []T) (float64, error) { return Percentile(xs, 50) }

// Min returns the smallest element.
func Min[T number](xs []T) (T, error) {
	var zero T
	if len(xs) == 0 {
		return zero, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element.
func Max[T number](xs []T) (T, error) {
	var zero T
	if len(xs) == 0 {
		return zero, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// JainFairness returns Jain's fairness index (Σx)² / (n·Σx²) of the
// allocations xs — 1 when every entity receives the same share, 1/n when a
// single entity receives everything. The serving loop reports it over
// per-tenant mean makespan stretch. An all-zero sample is perfectly fair by
// convention (every entity got the same nothing).
func JainFairness[T number](xs []T) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 { // exact zero means an all-zero sample, not a tolerance question
		return 1, nil
	}
	return sum * sum / (float64(len(xs)) * sumSq), nil
}
