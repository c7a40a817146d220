package netdps

import (
	"math/rand"
	"runtime"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
)

// measureFixture is the 24-task IPFwd-L1 ×8 testbed with 64 fixed random
// assignments.
func measureFixture(tb testing.TB) (*Testbed, []assign.Assignment) {
	tb.Helper()
	bed, err := NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	as := make([]assign.Assignment, 64)
	for i := range as {
		if as[i], err = assign.RandomPermutation(rng, bed.Machine.Topo, bed.TaskCount()); err != nil {
			tb.Fatal(err)
		}
	}
	return bed, as
}

// BenchmarkMeasureAnalytic times one analytic measurement (solve,
// canonical key, noise) of the 24-task IPFwd-L1 ×8 workload, cycling
// through 64 fixed random assignments.
func BenchmarkMeasureAnalytic(b *testing.B) {
	tb, as := measureFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.MeasureAnalytic(as[i%len(as)]); err != nil {
			b.Fatal(err)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the mean bytes
// allocated by f over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAnalyticMeasurementAllocBudget pins the cost of one analytic
// measurement on 24 tasks at 16 allocations (35 before the flat solver and
// the closed-form noise draw). Solve's own are its three Result slices,
// and it may allocate at most the 4224 bytes per call of the solver it
// replaced. A regression here means a table went back to a per-call make.
func TestAnalyticMeasurementAllocBudget(t *testing.T) {
	tb, as := measureFixture(t)
	a := as[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tb.MeasureAnalytic(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("MeasureAnalytic costs %.0f allocs, budget is 16", allocs)
	}
	solve := func() {
		if _, err := tb.Machine.Solve(tb.tasks, tb.links, a.Ctx); err != nil {
			t.Fatal(err)
		}
	}
	solveAllocs, solveBytes := testing.AllocsPerRun(100, solve), bytesPerRun(100, solve)
	t.Logf("MeasureAnalytic: %.0f allocs; Solve: %.0f allocs, %.0f bytes", allocs, solveAllocs, solveBytes)
	if solveAllocs > 3 {
		t.Errorf("Solve costs %.0f allocs, budget is 3", solveAllocs)
	}
	if solveBytes > 4224 {
		t.Errorf("Solve allocates %.0f bytes, budget is 4224", solveBytes)
	}
}
