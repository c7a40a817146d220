package evt

import (
	"math/rand"
	"testing"
)

// The streaming estimator's economic claim, pinned: a per-commit Observe
// must be at least 10x cheaper than the full refit it replaces (in
// practice it is orders of magnitude cheaper — an O(√n)-ish chunk insert
// vs a threshold scan with ~16 GPD maximum-likelihood fits). Both
// benchmarks run at the same sample size so the gate compares like with
// like.

const streamBenchN = 20000

func streamBenchSample(n int) []float64 {
	rng := rand.New(rand.NewSource(99))
	return GPD{Xi: -0.3, Sigma: 5}.Sample(rng, n)
}

// BenchmarkStreamUpdate measures one per-commit Observe on an estimator
// already holding streamBenchN observations.
func BenchmarkStreamUpdate(b *testing.B) {
	xs := streamBenchSample(streamBenchN)
	s := NewStreamEstimator(StreamOptions{POT: streamTestOpts()})
	if err := s.ObserveAll(xs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Observe(xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamRefit measures a scheduled full refit on the maintained
// order statistics (no re-sort; the pipeline itself dominates).
func BenchmarkStreamRefit(b *testing.B) {
	xs := streamBenchSample(streamBenchN)
	s := NewStreamEstimator(StreamOptions{POT: streamTestOpts()})
	if err := s.ObserveAll(xs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Refit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitGPD measures one maximum-likelihood GPD fit at m=125
// exceedances — 5% of a 2,500-draw sample, the size a refit's threshold
// scan fits about 16 times.
func BenchmarkFitGPD(b *testing.B) {
	ys := GPD{Xi: -0.3, Sigma: 5}.Sample(rand.New(rand.NewSource(99)), 125)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGPD(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the from-scratch batch analysis the
// streaming update amortizes away.
func BenchmarkAnalyze(b *testing.B) {
	xs := streamBenchSample(streamBenchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(xs, streamTestOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamUpdateBenchGate pins the ratio in CI: a regression that
// turns the per-commit update back into per-commit refit work (an
// accidental sort, an eager fit) fails the suite, not just a dashboard.
func TestStreamUpdateBenchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate skipped with -short")
	}
	update := testing.Benchmark(BenchmarkStreamUpdate)
	analyze := testing.Benchmark(BenchmarkAnalyze)
	perUpdate, perAnalyze := float64(update.NsPerOp()), float64(analyze.NsPerOp())
	t.Logf("per-commit update %.0f ns, full analysis %.0f ns (%.0fx)", perUpdate, perAnalyze, perAnalyze/perUpdate)
	if perAnalyze < 10*perUpdate {
		t.Errorf("per-commit update (%v ns) is not >= 10x cheaper than a full analysis (%v ns)", perUpdate, perAnalyze)
	}
}
