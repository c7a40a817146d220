package stats

import "math/rand"

// FirstFloat64 returns rand.New(rand.NewSource(seed)).Float64() — the first
// variate of a freshly seeded math/rand generator — without building the
// generator. Seeding fills a 607-word feedback register, which costs
// microseconds; the deterministic measurement noise draws exactly one
// variate per seed, so it only needs the two words that variate reads.
//
// The derivation follows math/rand's rngSource (rng.go):
//
//   - Seed normalises s to seed mod (2³¹−1), adds 2³¹−1 if negative and
//     replaces 0 by 89482311, then runs the Lehmer chain
//     x ← 48271·x mod (2³¹−1) from x₀ = s. It discards 20 values and fills
//     word i from the next three, x₂₀₊₃ᵢ₊₁, x₂₀₊₃ᵢ₊₂ and x₂₀₊₃ᵢ₊₃:
//     vec[i] = x₂₀₊₃ᵢ₊₁<<40 ^ x₂₀₊₃ᵢ₊₂<<20 ^ x₂₀₊₃ᵢ₊₃ ^ rngCooked[i].
//   - The first Uint64 steps tap to 606 and feed to 333 and returns
//     vec[333]+vec[606]; Int63 masks off the top bit and Float64 divides by
//     2⁶³.
//
// The chain has the closed form xₖ = s·48271ᵏ mod (2³¹−1), so the six
// values needed are six modular products with precomputed powers. In the
// 2⁻⁵³-rare case that the quotient rounds to 1.0, Float64 draws again; this
// falls back to math/rand for it.
func FirstFloat64(seed int64) float64 {
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	if s == 0 {
		s = 89482311
	}
	x := uint64(s)
	w333 := firstDrawWord(x, &firstDrawPow[0], rngCooked333)
	w606 := firstDrawWord(x, &firstDrawPow[1], rngCooked606)
	f := float64(int64((w333+w606)&(1<<63-1))) / (1 << 63)
	if f == 1 {
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}

const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1

	// math/rand's rngCooked[333] and rngCooked[606], copied from the
	// standard library's rng.go (the table has not changed since Go 1).
	rngCooked333 = -4633371852008891965
	rngCooked606 = 4152330101494654406
)

// firstDrawPow holds 48271ᵏ mod (2³¹−1) for the exponents that build
// register words 333 and 606: k = 20+3i+1, 20+3i+2, 20+3i+3.
var firstDrawPow = [2][3]uint64{
	{lehmerPow(20 + 3*333 + 1), lehmerPow(20 + 3*333 + 2), lehmerPow(20 + 3*333 + 3)},
	{lehmerPow(20 + 3*606 + 1), lehmerPow(20 + 3*606 + 2), lehmerPow(20 + 3*606 + 3)},
}

// firstDrawWord rebuilds one seeded register word from the chain start x.
func firstDrawWord(x uint64, pow *[3]uint64, cooked int64) uint64 {
	x1 := x * pow[0] % lehmerM
	x2 := x * pow[1] % lehmerM
	x3 := x * pow[2] % lehmerM
	return x1<<40 ^ x2<<20 ^ x3 ^ uint64(cooked)
}

// lehmerPow returns 48271ᵏ mod (2³¹−1) by square-and-multiply.
func lehmerPow(k int) uint64 {
	result, base := uint64(1), uint64(lehmerA)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			result = result * base % lehmerM
		}
		base = base * base % lehmerM
	}
	return result
}
