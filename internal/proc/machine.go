package proc

import (
	"fmt"
	"math"

	"optassign/internal/t2"
)

// Capacities holds, for each resource kind, the sustainable occupancy (work
// units per cycle) of one instance of that resource. Utilization above
// capacity slows every sharer proportionally.
type Capacities [NumResources]float64

// Machine is a processor performance model: a topology plus per-resource
// capacities and communication costs.
type Machine struct {
	Topo t2.Topology
	Caps Capacities

	// Queue-communication demand added to both endpoint tasks of a
	// pipeline link, depending on where the endpoints are placed: sharing
	// an L1 domain (same core) makes the memory queues cheap; crossing
	// cores routes them through the L2 and the crossbar.
	LocalCommL1    float64 // cycles on L1D when endpoints share a core
	RemoteCommL2   float64 // cycles on L2 when endpoints are on different cores
	RemoteCommXBar float64 // cycles on XBAR when endpoints are on different cores

	ClockHz float64 // cycles per second, converts rates to PPS
}

// UltraSPARCT2Machine returns the calibrated performance model used by the
// case study: 8 cores × 2 pipes × 4 strands at 1.4 GHz, with capacities
// reflecting the T2's single fetch/issue slot per pipeline, dual-pipe L1
// bandwidth per core, 8-bank L2, 8×9 crossbar and 4 memory controller
// channels.
func UltraSPARCT2Machine() *Machine {
	m := &Machine{
		Topo:           t2.UltraSPARCT2(),
		LocalCommL1:    25,
		RemoteCommL2:   30,
		RemoteCommXBar: 12,
		ClockHz:        1.4e9,
	}
	m.Caps = Capacities{
		// One fetch slot and (just under) one issue slot per pipeline: two
		// compute-bound strands in a pipe clearly over-subscribe it.
		IFU: 1.0, IEU: 0.85,
		// One load/store unit per core shared by all eight strands — the
		// T2's classic secondary bottleneck: two full pipeline instances
		// in one core over-subscribe the LSU even when they avoid sharing
		// a pipe.
		L1I: 1.0, L1D: 1.0, TLB: 1.2, LSU: 0.8, FPU: 1.0, CRY: 1.0,
		L2: 6.0, XBAR: 7.0, MEM: 3.5,
	}
	return m
}

// Validate reports whether the machine model is well formed.
func (m *Machine) Validate() error {
	if err := m.Topo.Validate(); err != nil {
		return err
	}
	for r, c := range m.Caps {
		if !(c > 0) {
			return fmt.Errorf("proc: capacity of %v must be positive, got %v", Resource(r), c)
		}
	}
	if !(m.ClockHz > 0) {
		return fmt.Errorf("proc: clock must be positive, got %v", m.ClockHz)
	}
	return nil
}

// Task is one schedulable entity: a thread of a software pipeline with its
// resource demand. Tasks with the same Group form one pipeline instance and
// process packets at a common steady-state rate (the slowest stage's rate).
type Task struct {
	Demand Demand
	Group  int
}

// Link is a producer→consumer memory queue between two tasks of the same
// pipeline. Volume scales the communication cost (1 = one packet handoff
// per processed packet).
type Link struct {
	A, B   int
	Volume float64
}

// Result is the solved steady-state behaviour of a workload under one
// assignment.
type Result struct {
	ServiceCycles []float64 // effective cycles/packet per task, contention included
	GroupRate     []float64 // packets/cycle per pipeline group
	TotalRate     float64   // Σ group rates, packets/cycle
	TotalPPS      float64   // TotalRate · ClockHz
	Slowdown      []float64 // per-task aggregate slowdown vs. un-contended base
	Iterations    int       // fixed-point iterations used
}

const (
	solverMaxIter = 200
	solverTol     = 1e-10
)

// Solve computes the steady-state throughput of the given tasks placed on
// contexts placement[i] (one distinct hardware context per task). It
// iterates the coupled system
//
//	util(resource instance) = Σ_{tasks sharing it} rate(task) · demand
//	slowdown(instance)      = max(1, util / capacity)
//	service(task)           = serial + Σ_r demand_r · slowdown(instance_r(task))
//	rate(group)             = min over the group's tasks of 1/service
//
// with damping until rates converge. The solution is deterministic and
// depends on the placement only through which resource instances tasks
// share — so symmetric assignments (same canonical form) get identical
// results.
//
// The solver resolves every (task, resource) pair to a slot of one flat
// utilization array once per call, keeping only the non-zero demands, so
// the fixed-point loop is two passes over a dense table. The table keeps
// tasks in order and resources in order within a task, so every
// floating-point sum is accumulated in the same sequence as the direct
// formulation — results are bit-identical to it, which the measurement
// journals and caches rely on.
func (m *Machine) Solve(tasks []Task, links []Link, placement []int) (Result, error) {
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
	var seenBuf [4]uint64
	seen := seenBuf[:]
	if words := (v + 63) / 64; words > len(seenBuf) {
		seen = make([]uint64, words)
	}
	for i, c := range placement {
		if c < 0 || c >= v {
			return Result{}, fmt.Errorf("proc: task %d placed on invalid context %d", i, c)
		}
		if seen[c/64]&(1<<(c%64)) != 0 {
			return Result{}, fmt.Errorf("proc: context %d assigned twice", c)
		}
		seen[c/64] |= 1 << (c % 64)
	}
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return Result{}, fmt.Errorf("proc: link %v references unknown task", l)
		}
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

	// Flat utilization layout: resource r's instances occupy slots
	// offset[r] to offset[r+1]-1.
	var offset [NumResources + 1]int
	for r := 0; r < NumResources; r++ {
		switch Resource(r).Level() {
		case t2.IntraPipe:
			offset[r+1] = offset[r] + m.Topo.Pipes()
		case t2.IntraCore:
			offset[r+1] = offset[r] + m.Topo.Cores
		default:
			offset[r+1] = offset[r] + 1
		}
	}
	slots := offset[NumResources]
	var utilBuf [128]float64
	util := utilBuf[:]
	if slots > len(utilBuf) {
		util = make([]float64, slots)
	}
	util = util[:slots]

	// Demand table: each task's non-zero effective demands, in resource
	// order, with the utilization slot each one loads. The effective
	// demand is the task's own plus link communication, which depends on
	// the placement distance of the endpoints; it is added link by link,
	// in link order, exactly as a per-task accumulation would.
	var taskBuf [64]solveTask
	var termBuf [256]solveTerm
	tt, terms := taskBuf[:0], termBuf[:0]
	for i, t := range tasks {
		eff := t.Demand
		for _, l := range links {
			if l.A != i && l.B != i {
				continue
			}
			var comm Demand
			if m.Topo.ShareLevel(placement[l.A], placement[l.B]) == t2.InterCore {
				comm.Res[L2] = m.RemoteCommL2 * l.Volume
				comm.Res[XBAR] = m.RemoteCommXBar * l.Volume
			} else {
				comm.Res[L1D] = m.LocalCommL1 * l.Volume
			}
			if l.A == i {
				eff = eff.Add(comm)
			}
			if l.B == i {
				eff = eff.Add(comm)
			}
		}
		base := eff.Base()
		if base <= 0 {
			return Result{}, fmt.Errorf("proc: task %d has non-positive base service time", i)
		}
		pipe, core := m.Topo.PipeOf(placement[i]), m.Topo.CoreOf(placement[i])
		for r, d := range eff.Res {
			if d == 0 {
				continue
			}
			slot := offset[r]
			switch Resource(r).Level() {
			case t2.IntraPipe:
				slot += pipe
			case t2.IntraCore:
				slot += core
			}
			terms = append(terms, solveTerm{d: d, cap: m.Caps[r], slot: int32(slot), res: int32(r)})
		}
		tt = append(tt, solveTask{serial: eff.Serial, base: base, group: t.Group, end: len(terms)})
	}

	// Fixed point on group rates.
	service := make([]float64, n)
	rate := make([]float64, numGroups)
	for i := range tt {
		service[i] = tt[i].base
	}
	updateRates := func() {
		for g := range rate {
			rate[g] = 0
		}
		for i := range service {
			r := 1 / service[i]
			g := tt[i].group
			if rate[g] == 0 || r < rate[g] {
				rate[g] = r
			}
		}
	}
	updateRates()

	iterations := 0
	for iter := 0; iter < solverMaxIter; iter++ {
		iterations = iter + 1
		// Utilization per resource instance under current rates.
		clear(util)
		start := 0
		for i := range tt {
			taskRate := rate[tt[i].group]
			for _, e := range terms[start:tt[i].end] {
				if e.d > 0 {
					util[e.slot] += taskRate * e.d
				}
			}
			start = tt[i].end
		}
		// Slowdowns and new service times.
		maxDelta := 0.0
		start = 0
		for i := range tt {
			s := tt[i].serial
			for _, e := range terms[start:tt[i].end] {
				slow := 1.0
				if u := util[e.slot]; u > e.cap {
					slow = contentionCurve(Resource(e.res), u/e.cap)
				}
				s += e.d * slow
			}
			start = tt[i].end
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
		res.Slowdown[i] = service[i] / tt[i].base
	}
	return res, nil
}

// solveTask is one task's row of Solve's demand table: its effective
// serial and un-contended cycles, its group, and the end of its entries
// in the term slice (each row starts where the previous one ends).
type solveTask struct {
	serial, base float64
	group, end   int
}

// solveTerm is one non-zero effective demand: the cycles per packet, the
// resource's capacity, the flat slot of the resource instance the task
// loads, and the resource kind (for its contention curve).
type solveTerm struct {
	d, cap    float64
	slot, res int32
}

// contentionCurve maps over-subscription (utilization / capacity > 1) to a
// per-access slowdown. Issue-slot resources degrade linearly — two strands
// demanding the same slot each get half of it. Cache-like resources degrade
// quadratically: over-subscription does not just share bandwidth, it evicts
// the other sharer's working set (thrashing). Queue-backed resources (LSU,
// crossbar, memory controllers) sit in between.
func contentionCurve(r Resource, over float64) float64 {
	switch r {
	case IFU, IEU, FPU, CRY:
		return over
	case L1I, L1D, TLB, L2:
		return over * over
	default: // LSU, XBAR, MEM
		return over * math.Sqrt(over)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
