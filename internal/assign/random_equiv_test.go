package assign

import (
	"math/rand"
	"slices"
	"testing"

	"optassign/internal/t2"
)

// randomReference is Random's rejection loop as first written — one
// rng.Intn per task, a []bool of used contexts cleared after every
// rejected attempt — kept as the oracle for the bitset sampler.
func randomReference(rng *rand.Rand, topo t2.Topology, tasks int) Assignment {
	v := topo.Contexts()
	ctx := make([]int, tasks)
	used := make([]bool, v)
	for {
		ok := true
		for i := range ctx {
			c := rng.Intn(v)
			if used[c] {
				ok = false
				break
			}
			used[c] = true
			ctx[i] = c
		}
		if ok {
			return Assignment{Topo: topo, Ctx: ctx}
		}
		for i := range used {
			used[i] = false
		}
	}
}

// TestRandomMatchesReference: Random must return the reference loop's
// assignments and leave the rng in the same state, for power-of-two and
// other context counts, with a one-word, a multi-word and a heap bitset.
func TestRandomMatchesReference(t *testing.T) {
	topos := []t2.Topology{
		t2.UltraSPARCT2(), // 64 contexts
		{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 1},
		{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 3},
		{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2},  // 8
		{Cores: 3, PipesPerCore: 2, ContextsPerPipe: 3},  // 18
		{Cores: 7, PipesPerCore: 3, ContextsPerPipe: 3},  // 63
		{Cores: 10, PipesPerCore: 2, ContextsPerPipe: 4}, // 80
		{Cores: 10, PipesPerCore: 5, ContextsPerPipe: 6}, // 300
	}
	for _, topo := range topos {
		v := topo.Contexts()
		// Cap the task count where an attempt still succeeds with
		// probability >= 0.5%, so rejection sampling stays quick.
		maxTasks, accept := 1, 1.0
		for maxTasks < min(v, 24) && accept*(1-float64(maxTasks)/float64(v)) >= 0.005 {
			accept *= 1 - float64(maxTasks)/float64(v)
			maxTasks++
		}
		for _, seed := range []int64{1, 2, 3} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				tasks := 1 + (k*7)%maxTasks
				a, err := Random(got, topo, tasks)
				if err != nil {
					t.Fatal(err)
				}
				if ref := randomReference(want, topo, tasks); !slices.Equal(a.Ctx, ref.Ctx) {
					t.Fatalf("%v seed %d draw %d: Random %v, reference %v", topo, seed, k, a.Ctx, ref.Ctx)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%v seed %d: rng streams diverged (%d vs %d)", topo, seed, g, w)
			}
		}
	}
}

func BenchmarkRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	topo := t2.UltraSPARCT2()
	for i := 0; i < b.N; i++ {
		if _, err := Random(rng, topo, 24); err != nil {
			b.Fatal(err)
		}
	}
}
