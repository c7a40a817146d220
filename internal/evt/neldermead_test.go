package evt

// The Nelder-Mead downhill simplex — the stand-in for the Matlab
// fminsearch() the paper used for its GPD fit (§3.3.2 Step 3) — lives
// here as a test-only oracle: FitGPD maximizes the exact profile
// likelihood instead, and TestFitGPDMatchesNelderMeadOracle checks that
// it never lands below the likelihood this simplex search reaches.

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// errNMDimension is returned when a starting point has no coordinates.
var errNMDimension = errors.New("nelder-mead: empty starting point")

// nelderMeadOptions tunes the simplex search. The zero value selects the
// fminsearch-compatible defaults.
type nelderMeadOptions struct {
	// MaxIter bounds the number of simplex iterations (default 200*dim,
	// matching fminsearch).
	MaxIter int
	// TolX is the simplex-diameter convergence tolerance (default 1e-8).
	TolX float64
	// TolF is the function-value spread tolerance (default 1e-10).
	TolF float64
	// InitialStep is the relative perturbation used to build the initial
	// simplex (default 0.05, matching fminsearch; absolute 0.00025 is used
	// for zero coordinates).
	InitialStep float64
}

func (o *nelderMeadOptions) withDefaults(dim int) nelderMeadOptions {
	out := nelderMeadOptions{MaxIter: 200 * dim, TolX: 1e-8, TolF: 1e-10, InitialStep: 0.05}
	if o == nil {
		return out
	}
	if o.MaxIter > 0 {
		out.MaxIter = o.MaxIter
	}
	if o.TolX > 0 {
		out.TolX = o.TolX
	}
	if o.TolF > 0 {
		out.TolF = o.TolF
	}
	if o.InitialStep > 0 {
		out.InitialStep = o.InitialStep
	}
	return out
}

// nmResult reports the outcome of a minimization.
type nmResult struct {
	X          []float64 // best point found
	F          float64   // objective value at X
	Iterations int
	Converged  bool
}

// nelderMead minimizes f starting from x0 using the Nelder-Mead downhill
// simplex method with the standard coefficients (reflection 1, expansion 2,
// contraction 0.5, shrink 0.5). The objective may return +Inf (or NaN, which
// is treated as +Inf) to encode constraint violations; the simplex simply
// moves away from such points, which is how the GPD support constraint
// (1 + ξy/σ > 0) is enforced by callers.
func nelderMead(f func([]float64) float64, x0 []float64, opts *nelderMeadOptions) (nmResult, error) {
	dim := len(x0)
	if dim == 0 {
		return nmResult{}, errNMDimension
	}
	o := opts.withDefaults(dim)

	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex: x0 plus one perturbed vertex per dimension.
	verts := make([][]float64, dim+1)
	fvals := make([]float64, dim+1)
	verts[0] = append([]float64(nil), x0...)
	fvals[0] = eval(verts[0])
	for i := 0; i < dim; i++ {
		v := append([]float64(nil), x0...)
		if v[i] != 0 {
			v[i] *= 1 + o.InitialStep
		} else {
			v[i] = 0.00025
		}
		verts[i+1] = v
		fvals[i+1] = eval(v)
	}

	order := make([]int, dim+1)
	centroid := make([]float64, dim)
	xr := make([]float64, dim)
	xe := make([]float64, dim)
	xc := make([]float64, dim)

	res := nmResult{}
	for iter := 0; iter < o.MaxIter; iter++ {
		res.Iterations = iter + 1
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return fvals[order[a]] < fvals[order[b]] })
		best, worst, second := order[0], order[dim], order[dim-1]

		// Convergence: spread of values and simplex size.
		fSpread := math.Abs(fvals[worst] - fvals[best])
		xSpread := 0.0
		for i := 0; i < dim; i++ {
			for _, vi := range order[1:] {
				d := math.Abs(verts[vi][i] - verts[best][i])
				if d > xSpread {
					xSpread = d
				}
			}
		}
		if fSpread <= o.TolF && xSpread <= o.TolX {
			res.Converged = true
			break
		}

		// Centroid of all but the worst vertex.
		for i := range centroid {
			centroid[i] = 0
		}
		for _, vi := range order[:dim] {
			for i, c := range verts[vi] {
				centroid[i] += c
			}
		}
		for i := range centroid {
			centroid[i] /= float64(dim)
		}

		// Reflection.
		for i := range xr {
			xr[i] = centroid[i] + (centroid[i] - verts[worst][i])
		}
		fr := eval(xr)
		switch {
		case fr < fvals[best]:
			// Expansion.
			for i := range xe {
				xe[i] = centroid[i] + 2*(centroid[i]-verts[worst][i])
			}
			fe := eval(xe)
			if fe < fr {
				copy(verts[worst], xe)
				fvals[worst] = fe
			} else {
				copy(verts[worst], xr)
				fvals[worst] = fr
			}
		case fr < fvals[second]:
			copy(verts[worst], xr)
			fvals[worst] = fr
		default:
			// Contraction (outside if reflected point improved on worst,
			// inside otherwise).
			if fr < fvals[worst] {
				for i := range xc {
					xc[i] = centroid[i] + 0.5*(xr[i]-centroid[i])
				}
			} else {
				for i := range xc {
					xc[i] = centroid[i] + 0.5*(verts[worst][i]-centroid[i])
				}
			}
			fc := eval(xc)
			if fc < math.Min(fr, fvals[worst]) {
				copy(verts[worst], xc)
				fvals[worst] = fc
			} else {
				// Shrink toward the best vertex.
				for _, vi := range order[1:] {
					for i := range verts[vi] {
						verts[vi][i] = verts[best][i] + 0.5*(verts[vi][i]-verts[best][i])
					}
					fvals[vi] = eval(verts[vi])
				}
			}
		}
	}

	bi := 0
	for i, fv := range fvals {
		if fv < fvals[bi] {
			bi = i
		}
	}
	res.X = append([]float64(nil), verts[bi]...)
	res.F = fvals[bi]
	return res, nil
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}
	res, err := nelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]+1) > 1e-5 {
		t.Errorf("minimizer = %v, want (3,-1)", res.X)
	}
	if math.Abs(res.F-5) > 1e-8 {
		t.Errorf("minimum = %v, want 5", res.F)
	}
	if !res.Converged {
		t.Error("should have converged")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	// The classic banana function: minimum 0 at (1, 1).
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := nelderMead(f, []float64{-1.2, 1}, &nelderMeadOptions{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("minimizer = %v, want (1,1)", res.X)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] - 7) }
	res, err := nelderMead(f, []float64{100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-7) > 1e-4 {
		t.Errorf("minimizer = %v, want 7", res.X[0])
	}
}

func TestNelderMeadConstraintViaInf(t *testing.T) {
	// Minimize (x−5)² subject to x <= 2, encoded by +Inf.
	f := func(x []float64) float64 {
		if x[0] > 2 {
			return math.Inf(1)
		}
		d := x[0] - 5
		return d * d
	}
	res, err := nelderMead(f, []float64{-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Errorf("constrained minimizer = %v, want 2", res.X[0])
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 1) * (x[0] - 1)
	}
	res, err := nelderMead(f, []float64{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Errorf("minimizer = %v, want 1", res.X[0])
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, err := nelderMead(func(x []float64) float64 { return 0 }, nil, nil); err != errNMDimension {
		t.Errorf("err = %v, want errNMDimension", err)
	}
}

func TestNelderMeadZeroStartCoordinate(t *testing.T) {
	// Regression: a zero coordinate must still receive a perturbation.
	f := func(x []float64) float64 { return (x[0] + 2) * (x[0] + 2) }
	res, err := nelderMead(f, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]+2) > 1e-4 {
		t.Errorf("minimizer = %v, want -2", res.X[0])
	}
}

func TestNelderMeadRandomQuadraticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		center := make([]float64, dim)
		start := make([]float64, dim)
		for i := range center {
			center[i] = r.Float64()*20 - 10
			start[i] = r.Float64()*20 - 10
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i := range x {
				d := x[i] - center[i]
				s += d * d
			}
			return s
		}
		res, err := nelderMead(obj, start, &nelderMeadOptions{MaxIter: 4000})
		if err != nil {
			return false
		}
		for i := range res.X {
			if math.Abs(res.X[i]-center[i]) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
