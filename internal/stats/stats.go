// Package stats provides the descriptive and inferential statistics
// primitives used by the extreme-value analysis: summary statistics,
// empirical distribution functions, sample quantiles, special functions
// (regularized incomplete gamma, inverse error function) and the chi-squared
// distribution needed for Wilks' likelihood-ratio confidence intervals. It
// also holds FirstFloat64, the closed-form first variate of a seeded
// math/rand source, which the deterministic measurement noise draws.
//
// Everything is implemented from scratch on top of the standard library so
// the module has no external dependencies.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Sum returns the sum of xs using Kahan compensated summation, which keeps
// long accumulations (tens of thousands of measurements) accurate.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance.
// It returns NaN for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MustMax is Max for samples known to be non-empty; it panics otherwise.
func MustMax(xs []float64) float64 {
	m, err := Max(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// SortedCopy returns a sorted copy of xs, leaving the input untouched.
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// Quantile returns the p-quantile (0 <= p <= 1) of the *sorted* sample xs
// using linear interpolation between order statistics (the common "type 7"
// definition used by Matlab and R defaults).
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
