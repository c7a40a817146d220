package evt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
)

// nelderMeadFitGPD is the GPD fit the paper describes: the negative
// log-likelihood minimized by a Nelder-Mead simplex (fminsearch) from the
// moments estimate, with the scale searched in log space and the shape
// constrained to (xiFloor, xiMax]. It is the oracle FitGPD must match.
func nelderMeadFitGPD(ys []float64) (Fit, error) {
	start, err := MomentsEstimate(ys)
	if err != nil {
		return Fit{}, err
	}
	negLL := func(p []float64) float64 {
		xi, sigma := p[0], math.Exp(p[1])
		if xi <= xiFloor || xi > xiMax || !(sigma > 0) || math.IsInf(sigma, 1) {
			return math.Inf(1)
		}
		return -(GPD{Xi: xi, Sigma: sigma}).LogLikelihood(ys)
	}
	res, err := nelderMead(negLL, []float64{start.Xi, math.Log(start.Sigma)}, &nelderMeadOptions{MaxIter: 2000})
	if err != nil {
		return Fit{}, err
	}
	if math.IsInf(res.F, 1) {
		return Fit{}, errors.New("no feasible point")
	}
	return Fit{GPD: GPD{Xi: res.X[0], Sigma: math.Exp(res.X[1])}, LogLikelihood: -res.F, Exceedances: len(ys), Method: "mle"}, nil
}

type fitCase struct {
	name string
	ys   []float64
}

// quantize rounds every value to a multiple of step, producing the tie
// runs of a cached or discrete measurement population.
func quantize(ys []float64, step float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = math.Round(y/step) * step
	}
	return out
}

// fitCorpus is the fixed-seed corpus FitGPD is held to: GPD samples over
// ξ ∈ [−0.95, 0.5] and 5…2000 exceedances, the same samples quantized
// into tie runs, near-exponential tails, J-shaped samples (ξ < −1) whose
// MLE sits on the ξ = xiFloor edge, and, unless testing.Short, the
// exceedance sets threshold selection picks on the enumerated testbed
// population.
func fitCorpus(t testing.TB) []fitCase {
	var cs []fitCase
	rng := rand.New(rand.NewSource(2012))
	sizes := []int{5, 8, 20, 60, 125, 400, 2000}
	for _, xi := range []float64{-0.95, -0.7, -0.5, -0.3, -0.15, 0.1, 0.3, 0.5} {
		for _, m := range sizes {
			ys := GPD{Xi: xi, Sigma: 1 + 9*rng.Float64()}.Sample(rng, m)
			cs = append(cs, fitCase{fmt.Sprintf("gpd/xi=%v/m=%d", xi, m), ys})
			if m >= 20 {
				step := (GPD{Xi: xi, Sigma: 1}).Quantile(0.99) / float64(5+rng.Intn(40))
				cs = append(cs, fitCase{fmt.Sprintf("ties/xi=%v/m=%d", xi, m), quantize(ys, step)})
			}
		}
	}
	for _, xi := range []float64{-1e-3, 0, 1e-3} {
		for _, m := range sizes {
			cs = append(cs, fitCase{fmt.Sprintf("near-exp/xi=%v/m=%d", xi, m), GPD{Xi: xi, Sigma: 3}.Sample(rng, m)})
		}
	}
	for _, xi := range []float64{-1.2, -2, -4} {
		for _, m := range sizes {
			cs = append(cs, fitCase{fmt.Sprintf("floor/xi=%v/m=%d", xi, m), GPD{Xi: xi, Sigma: 2}.Sample(rng, m)})
		}
	}
	if testing.Short() {
		return cs
	}
	app, err := apps.ByName("IPFwd-intadd", netgen.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := netdps.NewTestbed(app, 2, netdps.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	all, err := assign.Enumerate(tb.Machine.Topo, tb.TaskCount(), 0)
	if err != nil {
		t.Fatal(err)
	}
	perf := make([]float64, len(all))
	for i, a := range all {
		if perf[i], err = tb.MeasureAnalytic(a); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{500, 2000, 8000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = perf[rng.Intn(len(perf))]
		}
		for _, o := range []ThresholdOptions{{}, {MaxExceedFraction: 0.10}, {Rule: RuleMaxFraction}} {
			thr, err := SelectThreshold(xs, o)
			if err != nil {
				continue
			}
			cs = append(cs, fitCase{fmt.Sprintf("testbed/n=%d/cap=%v/rule=%d", n, o.MaxExceedFraction, o.Rule), thr.Exceedances})
		}
	}
	return cs
}

// TestFitGPDMatchesNelderMeadOracle: on every corpus sample the profile
// fit's log-likelihood is never below what the Nelder-Mead oracle
// reaches, beyond rounding, and it errs exactly when the oracle cannot
// produce a fit.
func TestFitGPDMatchesNelderMeadOracle(t *testing.T) {
	gains := 0
	for _, c := range fitCorpus(t) {
		fit, err := FitGPD(c.ys)
		if err != nil {
			if !errors.Is(err, ErrSampleTooSmall) {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		oracle, err := nelderMeadFitGPD(c.ys)
		if err != nil {
			t.Errorf("%s: oracle failed (%v) where the profile fit succeeded", c.name, err)
			continue
		}
		slack := 1e-9 * math.Max(1, math.Abs(oracle.LogLikelihood))
		if fit.LogLikelihood < oracle.LogLikelihood-slack {
			t.Errorf("%s: profile LL %.12g below oracle %.12g (profile %v, oracle %v)",
				c.name, fit.LogLikelihood, oracle.LogLikelihood, fit.GPD, oracle.GPD)
		}
		if fit.LogLikelihood > oracle.LogLikelihood+slack {
			gains++
		}
		if fit.GPD.Xi <= xiFloor || fit.GPD.Xi > xiMax {
			t.Errorf("%s: ξ̂ = %v outside (%v, %v]", c.name, fit.GPD.Xi, xiFloor, xiMax)
		}
	}
	t.Logf("profile fit beat the oracle beyond rounding on %d samples", gains)
}

// TestFitGPDEvaluationBudget is the deterministic cost gate: every corpus
// fit takes at most 40 profile evaluations (passes over the exceedances).
func TestFitGPDEvaluationBudget(t *testing.T) {
	const budget = 40
	worst, total, fits := 0, 0, 0
	for _, c := range fitCorpus(t) {
		_, evals, err := fitGPD(c.ys)
		if err != nil {
			continue
		}
		if evals > budget {
			t.Errorf("%s: %d profile evaluations, budget %d", c.name, evals, budget)
		}
		worst = max(worst, evals)
		total += evals
		fits++
	}
	t.Logf("%d fits: mean %.1f, worst %d profile evaluations", fits, float64(total)/float64(fits), worst)
}

// decodeExceedances turns fuzz bytes into a non-negative finite sample:
// the first byte picks a scale 10^(b−128)/8 clamped to [1e-12, 1e12], each
// following pair of bytes one value on a 16-bit grid of that scale.
func decodeExceedances(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	scale := math.Pow(10, float64(int(data[0])-128)/8)
	scale = math.Min(math.Max(scale, 1e-12), 1e12)
	var ys []float64
	for rest := data[1:]; len(rest) >= 2; rest = rest[2:] {
		ys = append(ys, float64(binary.LittleEndian.Uint16(rest))*scale)
	}
	return ys
}

// FuzzFitGPD holds the estimator's boundary: on any non-negative finite
// exceedance set a fit never panics; it returns a typed error or a valid
// GPD with ξ ∈ (xiFloor, xiMax], a finite log-likelihood, and a
// log-likelihood no lower (beyond rounding) than the moments fit's.
func FuzzFitGPD(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{3, 5, 30, 200} {
		seed := []byte{128}
		for i := 0; i < m; i++ {
			seed = binary.LittleEndian.AppendUint16(seed, uint16(rng.Intn(1<<16)))
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{255, 0, 0, 0, 0, 1, 0, 0, 0, 255, 255, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ys := decodeExceedances(data)
		fit, err := FitGPD(ys)
		if err != nil {
			if !errors.Is(err, ErrSampleTooSmall) && !errors.Is(err, ErrDegenerateTail) {
				t.Fatalf("untyped error %v on %v", err, ys)
			}
			return
		}
		if err := fit.GPD.Validate(); err != nil {
			t.Fatalf("invalid GPD %v: %v", fit.GPD, err)
		}
		if fit.GPD.Xi <= xiFloor || fit.GPD.Xi > xiMax {
			t.Fatalf("ξ̂ = %v outside (%v, %v]", fit.GPD.Xi, xiFloor, xiMax)
		}
		if math.IsNaN(fit.LogLikelihood) || math.IsInf(fit.LogLikelihood, 0) {
			t.Fatalf("non-finite LL %v for %v", fit.LogLikelihood, fit.GPD)
		}
		if mom, err := FitGPDMoments(ys); err == nil {
			if slack := 1e-9 * math.Max(1, math.Abs(mom.LogLikelihood)); fit.LogLikelihood < mom.LogLikelihood-slack {
				t.Fatalf("MLE LL %v below moments LL %v (%v vs %v)", fit.LogLikelihood, mom.LogLikelihood, fit.GPD, mom.GPD)
			}
		}
	})
}
