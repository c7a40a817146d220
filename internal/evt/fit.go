package evt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"optassign/internal/stats"
)

// Fit is the outcome of estimating GPD parameters from exceedances.
type Fit struct {
	GPD           GPD
	LogLikelihood float64
	Exceedances   int
	Method        string // "mle" or "moments"
}

// xiFloor bounds the shape parameter away from −1. Below ξ = −1 the GPD
// likelihood is unbounded (the density diverges at the right endpoint), so —
// as is standard practice for POT estimation — the search is restricted to
// ξ > −1, where the interior local maximum lives. Wilks-based intervals
// additionally assume ξ > −1/2 for full asymptotic regularity; diagnostics
// flag fits outside that region.
const xiFloor = -0.999

// ErrDegenerateTail reports an exceedance set with fewer than 3 distinct
// values — all ties, or nearly so. No two-parameter tail model is
// identifiable from such data (the likelihood degenerates toward a point
// mass), so every estimator rejects it up front instead of producing
// NaN/±Inf parameters. It wraps ErrSampleTooSmall: callers that already
// treat "not enough tail data" as a keep-sampling signal handle this case
// for free.
var ErrDegenerateTail = fmt.Errorf("%w: degenerate exceedances (fewer than 3 distinct values)", ErrSampleTooSmall)

// ErrMomentsUndefined reports a method-of-moments estimate pressed against
// the ξ = 1/2 validity wall. The estimator's formula ξ̂ = (1 − m²/v)/2 can
// never emit ξ̂ >= 1/2, but its *asymptotic variance* requires the sampled
// tail to have ξ < 1/2 (finite population variance): samples whose implied
// shape sits against the wall (v >> m², i.e. ξ̂ within 0.05 of 1/2) are the
// fingerprint of exactly that infinite-variance regime, where the estimate
// is noise. Rejecting with a typed error replaces the old silent clamp
// that handed callers a garbage fit.
var ErrMomentsUndefined = errors.New("evt: moment estimator undefined: implied shape is in the ξ >= 1/2 infinite-variance regime")

// momentShapeWall is the rejection bound for FitGPDMoments: implied shapes
// at or above it (equivalently v >= 10·m²) are treated as the ξ >= 1/2
// regime the moment estimator cannot see.
const momentShapeWall = 0.45

// distinctValues counts the distinct values of ys (exactly, not within a
// tolerance — ties from quantized measurements are exactly equal floats).
func distinctValues(ys []float64) int {
	if len(ys) == 0 {
		return 0
	}
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	return distinct
}

// MomentsEstimate returns the method-of-moments GPD estimate from
// exceedances ys, using
//
//	ξ̂ = (1 − m²/v)/2,  σ̂ = m(1 − ξ̂)
//
// where m and v are the sample mean and variance. It is both a cheap
// estimator in its own right (the ablation baseline) and the starting point
// of the maximum-likelihood search.
func MomentsEstimate(ys []float64) (GPD, error) {
	if len(ys) < 2 {
		return GPD{}, ErrSampleTooSmall
	}
	m := stats.Mean(ys)
	v := stats.Variance(ys)
	if !(m > 0) {
		return GPD{}, errors.New("evt: exceedances must be positive")
	}
	if !(v > 0) {
		return GPD{}, ErrDegenerateTail
	}
	xi := (1 - m*m/v) / 2
	if xi < xiFloor {
		xi = xiFloor + 0.01
	}
	if xi > 0.9 {
		xi = 0.9
	}
	sigma := m * (1 - xi)
	if sigma <= 0 {
		sigma = m
	}
	g := GPD{Xi: xi, Sigma: sigma}
	// The moments estimate can place the implied endpoint below the sample
	// maximum when ξ̂ < 0; nudge σ up so every observation is in-support,
	// otherwise the fit would assign zero likelihood to its own data.
	if g.Xi < 0 {
		maxY := stats.MustMax(ys)
		if need := -g.Xi * maxY * 1.0001; g.Sigma < need {
			g.Sigma = need
		}
	}
	return g, nil
}

// FitGPD computes the maximum-likelihood GPD fit to the exceedances ys
// (observations already reduced by the threshold, all >= 0). The paper
// minimizes the negative log-likelihood with Matlab's fminsearch (§3.3.2
// Step 3); this maximizes the same likelihood exactly instead, through
// Grimshaw's reduction to a one-dimensional profile (S. D. Grimshaw,
// Technometrics 35(2), 1993): see gpdProfile.
func FitGPD(ys []float64) (Fit, error) {
	fit, _, err := fitGPD(ys)
	return fit, err
}

// fitGPD is FitGPD that also reports how many profile evaluations (passes
// over the exceedances) the maximization took.
func fitGPD(ys []float64) (Fit, int, error) {
	if len(ys) < 5 {
		return Fit{}, 0, fmt.Errorf("%w: need at least 5 exceedances, have %d", ErrSampleTooSmall, len(ys))
	}
	if distinctValues(ys) < 3 {
		return Fit{}, 0, ErrDegenerateTail
	}
	maxY := stats.MustMax(ys)
	// The fit is scale-equivariant, so it runs on z = y/max(y) ∈ [0, 1]:
	// no sum can overflow, and the coordinate below is scale-free.
	zs := make([]float64, len(ys))
	for i, y := range ys {
		if !(y >= 0) || math.IsInf(y, 1) {
			return Fit{}, 0, errors.New("evt: exceedances must be finite and non-negative")
		}
		zs[i] = y / maxY
	}
	start, err := MomentsEstimate(zs)
	if err != nil {
		return Fit{}, 0, err
	}
	p := gpdProfile{zs: zs}
	best := p.maximize(math.Log1p(start.Xi / start.Sigma))
	// The θ → 0 limit is the exponential model, a point of the family
	// the profile's formula cannot evaluate directly.
	if ll := exponentialLimitLL(zs); !(best.ll >= ll) {
		best = profilePoint{ll: ll, xi: 0, sigma: stats.Mean(zs)}
	}
	if math.IsInf(best.ll, 0) || math.IsNaN(best.ll) {
		return Fit{}, p.evals, errors.New("evt: likelihood maximization failed to find a feasible point")
	}
	g := GPD{Xi: best.xi, Sigma: best.sigma * maxY}
	if err := g.Validate(); err != nil {
		return Fit{}, p.evals, err
	}
	return Fit{GPD: g, LogLikelihood: g.LogLikelihood(ys), Exceedances: len(ys), Method: "mle"}, p.evals, nil
}

// Bounds of the profile search: the admissible shapes (xiFloor, xiMax],
// the coordinate range w ∈ [profileWMin, profileWMax] (1 + θ·max(y)
// between e^−30 and e^50), the convergence tolerance on w and a hard cap
// on profile evaluations per fit.
const (
	xiMax            = 10
	profileWMin      = -30
	profileWMax      = 50
	profileTol       = 1e-10
	maxProfileEvals  = 60
	initialStepWidth = 0.25
)

// xiMin is the smallest admissible shape, just inside the open bound.
var xiMin = math.Nextafter(xiFloor, 0)

// gpdProfile is the GPD log-likelihood of the scaled exceedances zs,
// maximized over the shape ξ for a fixed θ = ξ/σ. For fixed θ the
// maximizing shape is ξ̂(θ) = mean log(1 + θz) (then σ̂ = ξ̂/θ), and the
// likelihood is unimodal in ξ, so clamping ξ̂ into [xiMin, xiMax] gives
// the exact profile of the constrained problem:
//
//	l(θ) = −m·log(ξ/θ) − (1 + 1/ξ)·Σ log(1 + θz),  ξ = clamp(ξ̂(θ)).
//
// It is searched in w = log(1 + θ), which maps the support constraint
// θ > −1/max(z) = −1 onto the real line, within [profileWMin, profileWMax].
type gpdProfile struct {
	zs    []float64
	evals int
}

// profilePoint is the profile evaluated at one coordinate.
type profilePoint struct {
	w         float64 // coordinate; θ = e^w − 1
	xi, sigma float64 // the profiled shape and scale at θ
	ll        float64 // profile log-likelihood
	dw, dww   float64 // its first and second derivative in w
}

// at evaluates the profile and its derivatives at w in one pass.
func (p *gpdProfile) at(w float64) profilePoint {
	p.evals++
	m := float64(len(p.zs))
	t := math.Expm1(w)
	var s, s1, s2 float64 // Σ log(1+θz), Σ z/(1+θz), Σ (z/(1+θz))²
	for _, z := range p.zs {
		r := z / (1 + t*z)
		s += math.Log1p(t * z)
		s1 += r
		s2 += r * r
	}
	pt := profilePoint{w: w}
	if t == 0 {
		// The exponential limit: ξ = 0, σ = z̄, and the score's limit
		// Σz²/(2z̄) − Σz (its curvature is left to the bisection).
		zbar := s1 / m
		pt.sigma, pt.ll = zbar, -m*math.Log(zbar)-m
		pt.dw, pt.dww = s2/(2*zbar)-s1, math.NaN()
		return pt
	}
	xiHat := s / m
	pt.xi = math.Min(math.Max(xiHat, xiMin), xiMax)
	pt.sigma = pt.xi / t
	k := 1 + 1/pt.xi
	pt.ll = -m*math.Log(pt.sigma) - k*s
	// Derivatives in θ (the envelope theorem drops ∂l/∂ξ at ξ̂), then
	// chained through dθ/dw = 1 + θ.
	dt := m/t - k*s1
	dtt := -m/(t*t) + k*s2
	if pt.xi == xiHat {
		dtt += s1 * s1 / (m * xiHat * xiHat)
	}
	e := 1 + t
	pt.dw, pt.dww = dt*e, dtt*e*e+dt*e
	return pt
}

// maximize finds a local maximum of the profile from w0 and returns the
// best point it evaluated. It walks uphill until the score changes sign
// — Newton steps while the profile is concave there, doubling steps
// otherwise — then closes the bracket with safeguarded Newton steps that
// fall back to bisection whenever a step would leave the bracket or
// shrink it too slowly. The bracket's score goes from + to −, so it
// always holds a maximum, never a minimum.
func (p *gpdProfile) maximize(w0 float64) profilePoint {
	x := p.at(math.Min(math.Max(w0, profileWMin), profileWMax))
	best := x
	lo, hi := math.Inf(-1), math.Inf(1) // bracket: score > 0 at lo, < 0 at hi
	step, stepOld := initialStepWidth, math.Inf(1)
	for p.evals < maxProfileEvals {
		if x.dw > 0 {
			lo = x.w
		} else if x.dw < 0 {
			hi = x.w
		} else {
			break // a stationary point, or a score lost to rounding
		}
		bracketed := !math.IsInf(lo, 0) && !math.IsInf(hi, 0)
		next := x.w - x.dw/x.dww
		newtonOK := x.dww < 0 && next > lo && next < hi
		if bracketed && math.Abs(next-x.w) > stepOld/2 {
			newtonOK = false
		}
		switch {
		case newtonOK:
		case bracketed:
			next = lo + (hi-lo)/2
		default:
			next = x.w + math.Copysign(2*step, x.dw)
		}
		next = math.Min(math.Max(next, profileWMin), profileWMax)
		stepOld, step = step, math.Abs(next-x.w)
		if step <= profileTol*math.Max(1, math.Abs(x.w)) {
			break
		}
		x = p.at(next)
		if x.ll > best.ll {
			best = x
		}
	}
	return best
}

// FitGPDMoments packages the method-of-moments estimate in the same Fit
// shape as FitGPD, for the estimator ablation and for production use as a
// cheap first-pass estimator. Unlike MomentsEstimate — which stays
// permissive because it only seeds the likelihood search — FitGPDMoments
// enforces the estimator's own validity region: an implied shape at the
// ξ >= 1/2 wall returns ErrMomentsUndefined instead of a clamped garbage
// fit, and a degenerate exceedance set returns ErrDegenerateTail.
func FitGPDMoments(ys []float64) (Fit, error) {
	if len(ys) < 2 {
		return Fit{}, ErrSampleTooSmall
	}
	if distinctValues(ys) < 3 {
		return Fit{}, ErrDegenerateTail
	}
	m := stats.Mean(ys)
	v := stats.Variance(ys)
	if m > 0 && v > 0 {
		if implied := (1 - m*m/v) / 2; implied >= momentShapeWall {
			return Fit{}, fmt.Errorf("%w (implied ξ̂ = %.4g)", ErrMomentsUndefined, implied)
		}
	}
	g, err := MomentsEstimate(ys)
	if err != nil {
		return Fit{}, err
	}
	return Fit{GPD: g, LogLikelihood: g.LogLikelihood(ys), Exceedances: len(ys), Method: "moments"}, nil
}
