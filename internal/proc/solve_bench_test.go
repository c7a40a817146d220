package proc_test

import (
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netdps"
)

// BenchmarkSolve times one steady-state solve of the 24-task IPFwd-L1 ×8
// workload, cycling through 64 fixed random placements.
func BenchmarkSolve(b *testing.B) {
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 8)
	if err != nil {
		b.Fatal(err)
	}
	tasks, links := tb.Tasks()
	rng := rand.New(rand.NewSource(1))
	placements := make([][]int, 64)
	for i := range placements {
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			b.Fatal(err)
		}
		placements[i] = a.Ctx
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Machine.Solve(tasks, links, placements[i%len(placements)]); err != nil {
			b.Fatal(err)
		}
	}
}
