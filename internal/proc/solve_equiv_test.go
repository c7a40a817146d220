package proc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"optassign/internal/t2"
)

// randomSolveCase draws one Solve input on topo: 1–21 three-stage
// pipelines (capped by the context count) with randomized demands — zero
// entries, the occasional negative one, and a dominant resource in half
// the tasks so that most workloads contend — regrouped tasks,
// random link volumes plus extra cross links, and a random injective
// placement. About one case in eight is corrupted into an invalid input.
func randomSolveCase(rng *rand.Rand, topo t2.Topology) ([]Task, []Link, []int) {
	v := topo.Contexts()
	inst := 1 + rng.Intn(min(21, v/3))
	n := 3 * inst
	tasks := make([]Task, n)
	for i := range tasks {
		var d Demand
		if rng.Intn(4) > 0 {
			d.Serial = rng.Float64() * 300
		}
		for r := range d.Res {
			switch k := rng.Intn(10); {
			case k < 4: // zero entry
			case k == 4 && rng.Intn(8) == 0:
				d.Res[r] = -rng.Float64() * 20
			default:
				d.Res[r] = rng.Float64() * 600
			}
		}
		if rng.Intn(2) == 0 {
			// A dominant demand: two such tasks on one instance contend.
			d.Res[rng.Intn(NumResources)] += 3000 + rng.Float64()*3000
		}
		d.Res[IEU] += 1 // keeps the base service time positive
		tasks[i] = Task{Demand: d, Group: i / 3}
		if rng.Intn(6) == 0 {
			tasks[i].Group = rng.Intn(inst + 2) // regroup; may leave gaps
		}
	}
	var links []Link
	for g := 0; g < inst; g++ {
		links = append(links,
			Link{A: 3 * g, B: 3*g + 1, Volume: rng.Float64() * 2},
			Link{A: 3*g + 1, B: 3*g + 2, Volume: rng.Float64() * 2})
	}
	for k := rng.Intn(4); k > 0; k-- {
		links = append(links, Link{A: rng.Intn(n), B: rng.Intn(n), Volume: rng.Float64()})
	}
	placement := rng.Perm(v)[:n]

	if rng.Intn(8) == 0 {
		switch rng.Intn(7) {
		case 0:
			placement[rng.Intn(n)] = -1 - rng.Intn(3)
		case 1:
			placement[rng.Intn(n)] = v + rng.Intn(3)
		case 2:
			if n > 1 {
				placement[rng.Intn(n-1)+1] = placement[0]
			} else {
				placement = append(placement, placement[0])
			}
		case 3:
			placement = placement[:n-1]
		case 4:
			links = append(links, Link{A: rng.Intn(n), B: n + rng.Intn(3)})
		case 5:
			tasks[rng.Intn(n)].Group = -1
		case 6:
			tasks[rng.Intn(n)] = Task{Group: tasks[0].Group}
		}
	}
	return tasks, links, placement
}

// sameResult reports the first difference between two solver outcomes,
// comparing floats by their bits.
func sameResult(got Result, gotErr error, want Result, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %q, reference %q", gotErr, wantErr)
		}
		return nil
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("Iterations %d, reference %d", got.Iterations, want.Iterations)
	}
	scalars := []struct {
		name      string
		got, want float64
	}{
		{"TotalRate", got.TotalRate, want.TotalRate},
		{"TotalPPS", got.TotalPPS, want.TotalPPS},
	}
	for _, s := range scalars {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			return fmt.Errorf("%s %v, reference %v", s.name, s.got, s.want)
		}
	}
	slices := []struct {
		name      string
		got, want []float64
	}{
		{"ServiceCycles", got.ServiceCycles, want.ServiceCycles},
		{"GroupRate", got.GroupRate, want.GroupRate},
		{"Slowdown", got.Slowdown, want.Slowdown},
	}
	for _, s := range slices {
		if len(s.got) != len(s.want) {
			return fmt.Errorf("len(%s) %d, reference %d", s.name, len(s.got), len(s.want))
		}
		for i := range s.got {
			if math.Float64bits(s.got[i]) != math.Float64bits(s.want[i]) {
				return fmt.Errorf("%s[%d] %v, reference %v", s.name, i, s.got[i], s.want[i])
			}
		}
	}
	return nil
}

// TestSolveMatchesReference is the differential oracle for the flattened
// solver: on randomized workloads, placements and topologies — the T2, a
// non-power-of-two context count and one with more than 64 contexts —
// Solve must return exactly what solveReference returns.
func TestSolveMatchesReference(t *testing.T) {
	topos := []t2.Topology{
		t2.UltraSPARCT2(),
		{Cores: 3, PipesPerCore: 2, ContextsPerPipe: 3},  // 18 contexts
		{Cores: 10, PipesPerCore: 2, ContextsPerPipe: 4}, // 80 contexts
	}
	cases := 4000
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(14))
	for _, topo := range topos {
		m := UltraSPARCT2Machine()
		m.Topo = topo
		invalid := 0
		for k := 0; k < cases; k++ {
			tasks, links, placement := randomSolveCase(rng, topo)
			want, wantErr := solveReference(m, tasks, links, placement)
			got, gotErr := m.Solve(tasks, links, placement)
			if err := sameResult(got, gotErr, want, wantErr); err != nil {
				t.Fatalf("%v case %d (%d tasks, placement %v): %v", topo, k, len(tasks), placement, err)
			}
			if wantErr != nil {
				invalid++
			}
		}
		if invalid == 0 || invalid == cases {
			t.Errorf("%v: %d of %d cases invalid; the generator must cover both kinds", topo, invalid, cases)
		}
	}
}

// TestSolveMatchesReferenceOnBadMachines covers the machine-level errors,
// which Solve reports before looking at the workload.
func TestSolveMatchesReferenceOnBadMachines(t *testing.T) {
	d := computeDemand()
	tasks := []Task{{Demand: d}}
	bad := []*Machine{UltraSPARCT2Machine(), UltraSPARCT2Machine(), UltraSPARCT2Machine()}
	bad[0].Caps[LSU] = 0
	bad[1].ClockHz = math.NaN()
	bad[2].Topo = t2.Topology{Cores: 1}
	for i, m := range bad {
		want, wantErr := solveReference(m, tasks, nil, []int{0})
		got, gotErr := m.Solve(tasks, nil, []int{0})
		if wantErr == nil {
			t.Fatalf("machine %d: reference accepted it", i)
		}
		if err := sameResult(got, gotErr, want, wantErr); err != nil {
			t.Errorf("machine %d: %v", i, err)
		}
	}
}
