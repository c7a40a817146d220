package netdps

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netgen"
	"optassign/internal/t2"
)

func newTB(t *testing.T, app apps.App, instances int, opts ...Option) *Testbed {
	t.Helper()
	tb, err := NewTestbed(app, instances, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func randomAssignment(t *testing.T, tb *Testbed, seed int64) assign.Assignment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewTestbedValidation(t *testing.T) {
	app := apps.NewIPFwd(apps.IPFwdL1)
	if _, err := NewTestbed(app, 0); err == nil {
		t.Error("0 instances accepted")
	}
	if _, err := NewTestbed(app, 21); err != nil { // 63 tasks on 64 contexts
		t.Errorf("fullest testbed rejected: %v", err)
	}
	// 66 tasks > 64 contexts, and counts whose task count would overflow.
	for _, n := range []int{22, math.MaxInt64/3 + 1, math.MaxInt64} {
		if _, err := NewTestbed(app, n); !errors.Is(err, ErrTooManyTasks) {
			t.Errorf("overfull testbed of %d instances: err = %v, want ErrTooManyTasks", n, err)
		}
	}
	bad := netgen.Profile{Flows: 0}
	if _, err := NewTestbed(app, 1, WithProfile(bad)); err == nil {
		t.Error("bad profile accepted")
	}
	tb := newTB(t, app, 8)
	if tb.TaskCount() != 24 {
		t.Errorf("TaskCount = %d", tb.TaskCount())
	}
	tasks, links := tb.Tasks()
	if len(tasks) != 24 || len(links) != 16 {
		t.Errorf("tasks=%d links=%d", len(tasks), len(links))
	}
}

func TestMeasureAnalyticValidatesAssignment(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2)
	if _, err := tb.MeasureAnalytic(assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{0, 1, 2}}); err == nil {
		t.Error("wrong task count accepted")
	}
	if _, err := tb.MeasureAnalytic(assign.Assignment{Topo: t2.Topology{Cores: 1, PipesPerCore: 1, ContextsPerPipe: 8}, Ctx: []int{0, 1, 2, 3, 4, 5}}); err == nil {
		t.Error("wrong topology accepted")
	}
	if _, err := tb.MeasureAnalytic(assign.Assignment{Topo: tb.Machine.Topo, Ctx: []int{0, 0, 1, 2, 3, 4}}); err == nil {
		t.Error("colliding assignment accepted")
	}
}

func TestMeasureAnalyticDeterministicAndSymmetric(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 4)
	a := randomAssignment(t, tb, 7)
	p1, err := tb.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tb.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("repeated measurement differs: %v vs %v", p1, p2)
	}
	// A symmetric relabeling (swap cores 0 and 1) measures identically.
	topo := tb.Machine.Topo
	b := a.Clone()
	for i, ctx := range a.Ctx {
		switch topo.CoreOf(ctx) {
		case 0:
			b.Ctx[i] = ctx + topo.PipesPerCore*topo.ContextsPerPipe
		case 1:
			b.Ctx[i] = ctx - topo.PipesPerCore*topo.ContextsPerPipe
		}
	}
	p3, err := tb.MeasureAnalytic(b)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p3 {
		t.Errorf("symmetric assignment measured differently: %v vs %v", p1, p3)
	}
}

func TestNoiseIsSmallAndConfigurable(t *testing.T) {
	app := apps.NewIPFwd(apps.IPFwdL1)
	clean := newTB(t, app, 4, WithNoise(0))
	noisy := newTB(t, app, 4, WithNoise(0.002))
	a := randomAssignment(t, clean, 11)
	pc, err := clean.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := noisy.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	if pc == pn {
		t.Error("noise had no effect")
	}
	if math.Abs(pn-pc)/pc > 0.02 {
		t.Errorf("noise too large: %v vs %v", pn, pc)
	}
	// Different seeds shift the noise.
	noisy2 := newTB(t, app, 4, WithNoise(0.002), WithSeed(99))
	pn2, err := noisy2.MeasureAnalytic(a)
	if err != nil {
		t.Fatal(err)
	}
	if pn2 == pn {
		t.Error("seed had no effect on noise")
	}
}

func TestAssignmentMattersAndMagnitudeIsSane(t *testing.T) {
	// The paper reports up to 49% performance variation between
	// assignments of the same workload (§4.3) and per-figure PPS in the
	// 10^5–10^7 range. Check both the spread and the magnitude.
	for _, app := range append(apps.Suite(netgen.DefaultProfile()), apps.Figure1Apps()...) {
		tb := newTB(t, app, 8, WithNoise(0))
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := int64(0); s < 60; s++ {
			pps, err := tb.MeasureAnalytic(randomAssignment(t, tb, s))
			if err != nil {
				t.Fatal(err)
			}
			lo = math.Min(lo, pps)
			hi = math.Max(hi, pps)
		}
		spread := (hi - lo) / hi
		if spread < 0.03 {
			t.Errorf("%s: spread %.1f%% too small — assignment barely matters", app.Name(), spread*100)
		}
		if spread > 0.70 {
			t.Errorf("%s: spread %.1f%% implausibly large", app.Name(), spread*100)
		}
		if lo < 2e5 || hi > 5e7 {
			t.Errorf("%s: PPS range [%.3g, %.3g] outside sanity band", app.Name(), lo, hi)
		}
	}
}

func TestClusteredBeatsScattered(t *testing.T) {
	// Placing each pipeline inside one core (P alone in a pipe, R+T in the
	// other) should beat scattering the three threads across three cores:
	// communication stays in the L1 domain.
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2, WithNoise(0))
	topo := tb.Machine.Topo
	clustered := assign.Assignment{Topo: topo, Ctx: []int{
		topo.Context(0, 0, 0), topo.Context(0, 1, 0), topo.Context(0, 0, 1), // instance 0 in core 0
		topo.Context(1, 0, 0), topo.Context(1, 1, 0), topo.Context(1, 0, 1), // instance 1 in core 1
	}}
	scattered := assign.Assignment{Topo: topo, Ctx: []int{
		topo.Context(0, 0, 0), topo.Context(1, 0, 0), topo.Context(2, 0, 0),
		topo.Context(3, 0, 0), topo.Context(4, 0, 0), topo.Context(5, 0, 0),
	}}
	pc, err := tb.MeasureAnalytic(clustered)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := tb.MeasureAnalytic(scattered)
	if err != nil {
		t.Fatal(err)
	}
	if !(pc > ps) {
		t.Errorf("clustered %v should beat scattered %v", pc, ps)
	}
}

func TestEngineMatchesAnalytic(t *testing.T) {
	// Cross-validation of the two measurement paths (DESIGN.md §6).
	for _, app := range []apps.App{
		apps.NewIPFwd(apps.IPFwdL1),
		apps.NewAhoCorasick(netgen.DefaultProfile()),
		apps.NewStateful(),
	} {
		tb := newTB(t, app, 4, WithNoise(0))
		for _, seed := range []int64{3, 17} {
			a := randomAssignment(t, tb, seed)
			analytic, err := tb.MeasureAnalytic(a)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := tb.MeasureEngine(a, 2500)
			if err != nil {
				t.Fatal(err)
			}
			diff := math.Abs(meas.PPS-analytic) / analytic
			if diff > 0.08 {
				t.Errorf("%s seed %d: engine %.0f vs analytic %.0f (%.1f%% apart)",
					app.Name(), seed, meas.PPS, analytic, diff*100)
			}
		}
	}
}

func TestEngineRunsRealThreadCode(t *testing.T) {
	profile := netgen.DefaultProfile()
	app := apps.NewStateful()
	tb := newTB(t, app, 4, WithProfile(profile))
	a := randomAssignment(t, tb, 5)
	meas, err := tb.MeasureEngine(a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(meas.Pipelines) != 4 || meas.Packets != 1000 {
		t.Fatalf("measurement metadata: %+v", meas)
	}
	// All four concurrent instances really pushed packets through the
	// shared flow table.
	if app.Table().Flows() == 0 {
		t.Error("no flows tracked — engine did not run the real P threads")
	}
	for i, pps := range meas.InstancePPS {
		if pps <= 0 {
			t.Errorf("instance %d: PPS %v", i, pps)
		}
	}
	var rx uint64
	for _, pipe := range meas.Pipelines {
		rx += pipe.R.(*apps.ReceiveThread).Packets
	}
	if rx != 4000 {
		t.Errorf("receive threads saw %d packets, want 4000", rx)
	}
}

func TestEngineValidation(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 2)
	a := randomAssignment(t, tb, 1)
	if _, err := tb.MeasureEngine(a, 0); err == nil {
		t.Error("0 packets accepted")
	}
	bad := a.Clone()
	bad.Ctx[0] = bad.Ctx[1]
	if _, err := tb.MeasureEngine(bad, 100); err == nil {
		t.Error("invalid assignment accepted")
	}
}

func TestEngineBottleneckOrdering(t *testing.T) {
	// A good assignment must also be measured as faster by the engine, not
	// just the analytic path.
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdIntAdd), 2, WithNoise(0))
	topo := tb.Machine.Topo
	// Worst case: both IEU-hungry P threads in the same pipe along with
	// their R threads.
	bad := assign.Assignment{Topo: topo, Ctx: []int{
		topo.Context(0, 0, 0), topo.Context(0, 0, 1), topo.Context(0, 1, 0),
		topo.Context(0, 0, 2), topo.Context(0, 0, 3), topo.Context(0, 1, 1),
	}}
	good := assign.Assignment{Topo: topo, Ctx: []int{
		topo.Context(0, 0, 0), topo.Context(0, 1, 0), topo.Context(0, 0, 1),
		topo.Context(1, 0, 0), topo.Context(1, 1, 0), topo.Context(1, 0, 1),
	}}
	mb, err := tb.MeasureEngine(bad, 1500)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := tb.MeasureEngine(good, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !(mg.PPS > mb.PPS*1.05) {
		t.Errorf("engine: good %v not clearly above bad %v", mg.PPS, mb.PPS)
	}
}
