package proc

import (
	"fmt"

	"optassign/internal/t2"
)

// solveReference is the straightforward fixed-point solver Solve replaced:
// per-(task, resource) instance lookups through a closure, a [][]float64
// utilization table and a map for duplicate placements. It is kept as the
// executable specification — TestSolveMatchesReference requires Solve to
// reproduce every Result field bit for bit, every iteration count and
// every error string.
func solveReference(m *Machine, tasks []Task, links []Link, placement []int) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	n := len(tasks)
	if n == 0 {
		return Result{}, fmt.Errorf("proc: no tasks")
	}
	if len(placement) != n {
		return Result{}, fmt.Errorf("proc: %d tasks but %d placements", n, len(placement))
	}
	v := m.Topo.Contexts()
	seen := make(map[int]bool, n)
	for i, c := range placement {
		if c < 0 || c >= v {
			return Result{}, fmt.Errorf("proc: task %d placed on invalid context %d", i, c)
		}
		if seen[c] {
			return Result{}, fmt.Errorf("proc: context %d assigned twice", c)
		}
		seen[c] = true
	}

	// Effective demands: task demand plus link communication, which depends
	// on the placement distance of the endpoints.
	eff := make([]Demand, n)
	for i, t := range tasks {
		eff[i] = t.Demand
	}
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return Result{}, fmt.Errorf("proc: link %v references unknown task", l)
		}
		var comm Demand
		if m.Topo.ShareLevel(placement[l.A], placement[l.B]) == t2.InterCore {
			comm.Res[L2] = m.RemoteCommL2 * l.Volume
			comm.Res[XBAR] = m.RemoteCommXBar * l.Volume
		} else {
			comm.Res[L1D] = m.LocalCommL1 * l.Volume
		}
		eff[l.A] = eff[l.A].Add(comm)
		eff[l.B] = eff[l.B].Add(comm)
	}

	// Group bookkeeping.
	maxGroup := 0
	for _, t := range tasks {
		if t.Group < 0 {
			return Result{}, fmt.Errorf("proc: negative group %d", t.Group)
		}
		if t.Group > maxGroup {
			maxGroup = t.Group
		}
	}
	numGroups := maxGroup + 1

	// Resource instance index per task and resource kind.
	instOf := func(task int, r Resource) int {
		ctx := placement[task]
		switch r.Level() {
		case t2.IntraPipe:
			return m.Topo.PipeOf(ctx)
		case t2.IntraCore:
			return m.Topo.CoreOf(ctx)
		default:
			return 0
		}
	}
	instances := [NumResources]int{}
	for r := 0; r < NumResources; r++ {
		switch Resource(r).Level() {
		case t2.IntraPipe:
			instances[r] = m.Topo.Pipes()
		case t2.IntraCore:
			instances[r] = m.Topo.Cores
		default:
			instances[r] = 1
		}
	}

	// Fixed point on group rates.
	service := make([]float64, n)
	rate := make([]float64, numGroups)
	for i, d := range eff {
		s := d.Base()
		if s <= 0 {
			return Result{}, fmt.Errorf("proc: task %d has non-positive base service time", i)
		}
		service[i] = s
	}
	groupOf := make([]int, n)
	for i, t := range tasks {
		groupOf[i] = t.Group
	}
	updateRates := func() {
		for g := range rate {
			rate[g] = 0
		}
		for i := range service {
			r := 1 / service[i]
			g := groupOf[i]
			if rate[g] == 0 || r < rate[g] {
				rate[g] = r
			}
		}
	}
	updateRates()

	util := make([][]float64, NumResources)
	for r := range util {
		util[r] = make([]float64, instances[r])
	}

	iterations := 0
	for iter := 0; iter < solverMaxIter; iter++ {
		iterations = iter + 1
		// Utilization per resource instance under current rates.
		for r := range util {
			for j := range util[r] {
				util[r][j] = 0
			}
		}
		for i := range eff {
			taskRate := rate[groupOf[i]]
			for r := 0; r < NumResources; r++ {
				if d := eff[i].Res[r]; d > 0 {
					util[r][instOf(i, Resource(r))] += taskRate * d
				}
			}
		}
		// Slowdowns and new service times.
		maxDelta := 0.0
		for i := range eff {
			s := eff[i].Serial
			for r := 0; r < NumResources; r++ {
				d := eff[i].Res[r]
				if d == 0 {
					continue
				}
				slow := 1.0
				if u := util[r][instOf(i, Resource(r))]; u > m.Caps[r] {
					slow = contentionCurve(Resource(r), u/m.Caps[r])
				}
				s += d * slow
			}
			// Damping keeps the utilization↔rate loop from oscillating.
			newS := 0.5*service[i] + 0.5*s
			if delta := abs(newS-service[i]) / service[i]; delta > maxDelta {
				maxDelta = delta
			}
			service[i] = newS
		}
		updateRates()
		if maxDelta < solverTol {
			break
		}
	}

	res := Result{
		ServiceCycles: service,
		GroupRate:     rate,
		Slowdown:      make([]float64, n),
		Iterations:    iterations,
	}
	for g := range rate {
		res.TotalRate += rate[g]
	}
	res.TotalPPS = res.TotalRate * m.ClockHz
	for i := range service {
		res.Slowdown[i] = service[i] / eff[i].Base()
	}
	return res, nil
}
