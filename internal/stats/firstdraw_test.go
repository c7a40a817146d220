package stats

import (
	"math"
	"math/rand"
	"testing"
)

// firstDrawEdgeSeeds are the seeds where math/rand's seed normalisation
// branches: zero (replaced by 89482311), the modulus itself and its
// negation (both reduce to zero), 89482311 (aliases zero), the int64
// extremes and their neighbours.
var firstDrawEdgeSeeds = []int64{
	0, 1, -1,
	1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31), 1<<31 - 2, -(1<<31 - 2),
	89482311, -89482311,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

func mathRandFirst(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

// TestFirstDrawMatchesMathRand: FirstFloat64 must return bit for bit what
// a freshly seeded math/rand generator returns first, on the edge seeds
// and on 10⁵ random ones.
func TestFirstDrawMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), firstDrawEdgeSeeds...)
	rng := rand.New(rand.NewSource(14))
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for _, seed := range seeds {
		got, want := FirstFloat64(seed), mathRandFirst(seed)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FirstFloat64(%d) = %v, math/rand %v", seed, got, want)
		}
	}
}

func FuzzFirstDraw(f *testing.F) {
	for _, seed := range firstDrawEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, want := FirstFloat64(seed), mathRandFirst(seed)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FirstFloat64(%d) = %v, math/rand %v", seed, got, want)
		}
	})
}

var firstDrawSink float64

// BenchmarkFirstFloat64 compares the closed-form first draw with seeding a
// math/rand source to draw it.
func BenchmarkFirstFloat64(b *testing.B) {
	for _, bc := range []struct {
		name string
		draw func(int64) float64
	}{{"jump", FirstFloat64}, {"math-rand", mathRandFirst}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				firstDrawSink = bc.draw(int64(uint64(i) * 0x9E3779B97F4A7C15))
			}
		})
	}
}
