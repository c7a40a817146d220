package assign

import (
	"fmt"
	"math"
	"math/rand"

	"optassign/internal/t2"
)

// Random generates one uniformly distributed valid assignment of tasks
// tasks onto topo using exactly the paper's §3.3.2 Step 1 procedure:
// independently draw a uniform context for every task and discard the whole
// assignment on any collision ("sampling with replacement" over the
// population of valid assignments). The resulting sample is iid uniform
// over valid (injective) assignments.
//
// The expected number of rejections grows steeply as tasks approaches
// topo.Contexts() (the birthday problem); use RandomPermutation for
// near-full workloads — it draws from the identical distribution.
//
// Each context is drawn as rng.Intn(topo.Contexts()) would draw it, and an
// attempt stops at its first collision, so the variates consumed — and
// hence every assignment after this one on the same rng — are fixed by the
// seed. Journals replay on that guarantee.
func Random(rng *rand.Rand, topo t2.Topology, tasks int) (Assignment, error) {
	if err := topo.Validate(); err != nil {
		return Assignment{}, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return Assignment{}, fmt.Errorf("assign: %d tasks do not fit %d contexts", tasks, v)
	}
	if v > math.MaxInt32 {
		return Assignment{}, fmt.Errorf("assign: %d contexts exceed the sampler's %d", v, math.MaxInt32)
	}
	ctx := make([]int, tasks)
	// Used contexts live in a bitset, on the stack up to 256 contexts.
	var usedBuf [4]uint64
	used := usedBuf[:]
	if w := (v + 63) / 64; w > len(usedBuf) {
		used = make([]uint64, w)
	}
	// Each draw is rng.Intn(v) inlined: Int31n on the top 31 bits of
	// Int63, masked for a power of two and otherwise rejecting values above
	// the largest multiple of v. Going through Intn costs about a third of
	// the sampler's time.
	n := int32(v)
	limit := int32(1<<31 - 1 - (1<<31)%uint32(n))
	for {
		clear(used)
		i := 0
		for ; i < tasks; i++ {
			c := int32(rng.Int63() >> 32)
			if n&(n-1) == 0 {
				c &= n - 1
			} else {
				for c > limit {
					c = int32(rng.Int63() >> 32)
				}
				c %= n
			}
			w, bit := uint32(c)/64, uint64(1)<<(uint32(c)%64)
			if used[w]&bit != 0 {
				// Reject the whole attempt at the first collision; the
				// remaining tasks of this attempt draw nothing.
				break
			}
			used[w] |= bit
			ctx[i] = int(c)
		}
		if i == tasks {
			return Assignment{Topo: topo, Ctx: ctx}, nil
		}
	}
}

// RandomPermutation generates one uniformly distributed valid assignment by
// a partial Fisher-Yates shuffle of the context indices. The distribution
// is identical to Random's (uniform over injective task→context maps) but
// generation is O(V) worst case, independent of how full the machine is.
func RandomPermutation(rng *rand.Rand, topo t2.Topology, tasks int) (Assignment, error) {
	if err := topo.Validate(); err != nil {
		return Assignment{}, err
	}
	v := topo.Contexts()
	if tasks < 1 || tasks > v {
		return Assignment{}, fmt.Errorf("assign: %d tasks do not fit %d contexts", tasks, v)
	}
	perm := make([]int, v)
	for i := range perm {
		perm[i] = i
	}
	ctx := make([]int, tasks)
	for i := 0; i < tasks; i++ {
		j := i + rng.Intn(v-i)
		perm[i], perm[j] = perm[j], perm[i]
		ctx[i] = perm[i]
	}
	return Assignment{Topo: topo, Ctx: ctx}, nil
}

// Sample draws n iid uniform random assignments. For workloads using more
// than half the machine's contexts it switches from the paper-faithful
// rejection generator to the equivalent permutation generator to keep
// generation cheap.
func Sample(rng *rand.Rand, topo t2.Topology, tasks, n int) ([]Assignment, error) {
	gen := Random
	if v := topo.Contexts(); v > 0 && tasks*2 > v {
		gen = RandomPermutation
	}
	out := make([]Assignment, 0, n)
	for i := 0; i < n; i++ {
		a, err := gen(rng, topo, tasks)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
