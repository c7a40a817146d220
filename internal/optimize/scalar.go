// Package optimize provides the derivative-free scalar routines the EVT
// analysis needs: a golden-section minimizer for unimodal 1-D functions
// and a bisection root finder for confidence-interval boundaries.
package optimize

import (
	"errors"
	"math"
)

// ErrBracket is returned when a root finder's bracket does not straddle a
// sign change.
var ErrBracket = errors.New("optimize: bracket does not straddle a root")

// GoldenSection minimizes a unimodal scalar function on [a, b] using
// golden-section search. It returns the minimizer and the minimum. The
// objective may return +Inf/NaN (treated as +Inf) inside the interval; the
// search simply avoids such regions, which callers use to encode support
// constraints in profile likelihoods.
func GoldenSection(f func(float64) float64, a, b, tol float64) (xmin, fmin float64) {
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	eval := func(x float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	const invPhi = 0.6180339887498949  // 1/φ
	const invPhi2 = 0.3819660112501051 // 1/φ²
	h := b - a
	c := a + invPhi2*h
	d := a + invPhi*h
	fc, fd := eval(c), eval(d)
	// ~log_φ((b−a)/tol) iterations suffice; cap generously.
	for i := 0; i < 400 && h > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			h = b - a
			c = a + invPhi2*h
			fc = eval(c)
		} else {
			a, c, fc = c, d, fd
			h = b - a
			d = a + invPhi*h
			fd = eval(d)
		}
	}
	if fc < fd {
		return c, fc
	}
	return d, fd
}

// Bisect finds a root of f in [a, b] where f(a) and f(b) have opposite
// signs, to absolute tolerance tol on x.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || (fa > 0) == (fb > 0) {
		return 0, ErrBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for i := 0; i < 500; i++ {
		mid := a + (b-a)/2
		fm := f(mid)
		if fm == 0 || (b-a)/2 < tol {
			return mid, nil
		}
		if math.IsNaN(fm) {
			// Retreat: treat NaN as the same side as the nearer finite
			// endpoint with matching uncertainty; shrink toward a.
			b, fb = mid, fm
			_ = fb
			continue
		}
		if (fm > 0) == (fa > 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return a + (b-a)/2, nil
}
