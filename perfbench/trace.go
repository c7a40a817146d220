package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/search"
)

// tracer keeps the spans the traced harness records around each call
// into a layer, in memory, until the run ends. Spans are offsets from
// base. The wrappers below only time calls; they change no argument,
// result or call order, so a traced campaign writes the same journal as
// the CLI (the determinism probe checks it).
type tracer struct {
	base time.Time

	mu         sync.Mutex
	next       []span // search.Strategy.Next
	measure    []span // Testbed.Measure, one assignment
	batch      []span // Testbed.MeasureBatch
	batchSizes []int
	journal    []span // JournalRunner.MeasureContext: measure + append
	commit     []span // CommitFunc (batched stack): append only
	checkpoint []span // OnRefit: estimator checkpoint write
	rounds     []time.Duration
	recorded   int // spans and marks recorded, for the overhead estimate

	cache *core.CacheMetrics // hits and misses of every cached campaign
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), cache: core.NewCacheMetrics(obs.NewRegistry())}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// add records a span that started at t0 and ends now.
func (t *tracer) add(list *[]span, t0 time.Duration) {
	end := t.now()
	t.mu.Lock()
	*list = append(*list, span{t0, end})
	t.recorded++
	t.mu.Unlock()
}

// timedStrategy times search.Strategy.Next.
type timedStrategy struct {
	search.Strategy
	t *tracer
}

func (s timedStrategy) Next(rng *rand.Rand, h *search.History) (search.Draw, error) {
	t0 := s.t.now()
	d, err := s.Strategy.Next(rng, h)
	s.t.add(&s.t.next, t0)
	return d, err
}

// timedTestbed times the testbed's measurements. It exposes MeasureBatch
// as well, so core's batch capability probe still finds the testbed's
// core-sharded path through it.
type timedTestbed struct {
	tb *netdps.Testbed
	t  *tracer
}

// MeasureContext checks ctx before measuring, as core's adapter for the
// bare testbed does.
func (w timedTestbed) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	t0 := w.t.now()
	perf, err := w.tb.Measure(a)
	w.t.add(&w.t.measure, t0)
	return perf, err
}

func (w timedTestbed) MeasureBatch(as []assign.Assignment) ([]float64, []error) {
	t0 := w.t.now()
	perfs, errs := w.tb.MeasureBatch(as)
	w.t.add(&w.t.batch, t0)
	w.t.mu.Lock()
	w.t.batchSizes = append(w.t.batchSizes, len(as))
	w.t.mu.Unlock()
	return perfs, errs
}

// timedJournal times campaign.JournalRunner, whose span holds the
// measurement as a child; the difference is the journal's self time.
type timedJournal struct {
	r campaign.JournalRunner
	t *tracer
}

func (w timedJournal) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	t0 := w.t.now()
	perf, err := w.r.MeasureContext(ctx, a)
	w.t.add(&w.t.journal, t0)
	return perf, err
}

// roundMarks records when each round event arrives.
type roundMarks struct{ t *tracer }

func (r roundMarks) Emit(e obs.Event) {
	if e.Name != "round" {
		return
	}
	at := r.t.now()
	r.t.mu.Lock()
	r.t.rounds = append(r.t.rounds, at)
	r.t.recorded++
	r.t.mu.Unlock()
}

// traceCampaign runs one campaign in-process with the stack optassign
// builds for the same flags — serial journaled, or cached and batched —
// with every layer wrapped for timing. It returns the result and the
// campaign's wall time, testbed construction excluded.
func traceCampaign(ctx context.Context, t *tracer, p soloParams, seed int64, journal string) (core.IterResult, time.Duration, error) {
	app, err := apps.ByName("IPFwd-L1", netgen.DefaultProfile())
	if err != nil {
		return core.IterResult{}, 0, err
	}
	tb, err := netdps.NewTestbed(app, p.instances, netdps.WithSeed(seed))
	if err != nil {
		return core.IterResult{}, 0, err
	}
	j, err := campaign.CreateJournal(journal, campaign.JournalHeader{
		Benchmark: app.Name(), Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Seed: seed,
	})
	if err != nil {
		return core.IterResult{}, 0, err
	}
	defer j.Close()
	ckptPath := campaign.EstimatorCheckpointPath(journal)
	cfg := core.IterConfig{
		Topo:          tb.Machine.Topo,
		Tasks:         tb.TaskCount(),
		AcceptLossPct: p.loss,
		Ninit:         p.ninit,
		Ndelta:        p.ndelta,
		MaxSamples:    p.max,
		Seed:          seed,
		Strategy:      timedStrategy{search.Uniform{}, t},
		Events:        roundMarks{t},
		OnRefit: func(st evt.StreamState) error {
			t0 := t.now()
			err := campaign.SaveEstimatorCheckpoint(ckptPath, st)
			t.add(&t.checkpoint, t0)
			return err
		},
	}
	testbed := timedTestbed{tb, t}

	var res core.IterResult
	start := time.Now()
	if p.cached {
		c := core.NewCache(0, t.cache)
		cached := core.NewCachedContextRunner(testbed, c, tb.Identity())
		commit := func(a assign.Assignment, perf float64, merr error) error {
			t0 := t.now()
			err := j.Commit(a, perf, merr)
			t.add(&t.commit, t0)
			return err
		}
		res, err = core.IterateBatched(ctx, cfg, cached, core.BatchOptions{Size: batchSize}, commit)
	} else {
		res, err = core.IterateContext(ctx, cfg, timedJournal{campaign.JournalRunner{Journal: j, Runner: testbed}, t})
	}
	wall := time.Since(start)
	if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
		return res, wall, err
	}
	return res, wall, j.Close()
}

// traceSolo is the traced run of a solo workload: the same campaign seeds
// as the untraced run, in-process, each layer timed from outside.
func traceSolo(ctx context.Context, e *env, p soloParams) (*report, error) {
	rep := newReport()
	t := newTracer()
	var (
		walls, refits []time.Duration
		draws, bounds []float64
		journalBytes  []float64
		firstJournal  string
	)
	deadline := time.Now().Add(e.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := campaignSeed(e.seed, i)
		journal := filepath.Join(e.work, fmt.Sprintf("t%04d.journal", i))
		// Commits and rounds of this campaign only: the refit derivation
		// pairs each round with its own last commit.
		t.mu.Lock()
		commitsBefore, journalBefore, roundsBefore, ckptBefore := len(t.commit), len(t.journal), len(t.rounds), len(t.checkpoint)
		t.mu.Unlock()
		res, wall, err := traceCampaign(ctx, t, p, seed, journal)
		rep.record(fmt.Sprintf("traced campaign %d (seed %d)", i, seed), err)
		if err != nil {
			continue
		}
		walls = append(walls, wall)
		draws = append(draws, float64(res.Samples))
		bounds = append(bounds, res.Final.HeadroomHiPct)
		if fi, err := os.Stat(journal); err == nil {
			journalBytes = append(journalBytes, float64(fi.Size()))
		}
		t.mu.Lock()
		var ends []time.Duration
		for _, s := range t.commit[commitsBefore:] {
			ends = append(ends, s.end)
		}
		for _, s := range t.journal[journalBefore:] {
			ends = append(ends, s.end)
		}
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		refits = append(refits, refitTimes(ends, t.rounds[roundsBefore:], t.checkpoint[ckptBefore:])...)
		t.mu.Unlock()
		if i == 0 {
			firstJournal = journal
		} else {
			os.Remove(journal)
			os.Remove(campaign.EstimatorCheckpointPath(journal))
		}
	}

	stderr, err := os.Create(filepath.Join(e.work, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	rep.record("determinism probe", probe(ctx, e, p, stderr, campaignSeed(e.seed, 0), firstJournal, false))

	// Per-call self times.
	var commitSelf []time.Duration
	for i, js := range t.journal {
		commitSelf = append(commitSelf, selfTime(js, t.measure[i:i+1]))
	}
	for _, s := range t.commit {
		commitSelf = append(commitSelf, s.dur())
	}
	measureCalls := append(spanDurs(t.measure), spanDurs(t.batch)...)
	wall := sumDur(walls)
	layers := map[string]time.Duration{
		"search":   sumDur(spanDurs(t.next)),
		"netdps":   sumDur(measureCalls),
		"campaign": sumDur(commitSelf) + sumDur(spanDurs(t.checkpoint)),
		"evt":      sumDur(refits),
	}
	v := rep.values
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	v["search.draws"] = float64(len(t.next))
	v["search.next_s"] = seconds(layers["search"])
	v["search.next_us.p50"] = median(durs(spanDurs(t.next), micros))
	v["netdps.measure_calls"] = float64(len(measureCalls))
	v["netdps.measure_s"] = seconds(layers["netdps"])
	v["netdps.measure_us.p50"] = median(durs(measureCalls, micros))
	v["netdps.batch_calls"] = float64(len(t.batch))
	sizes := make([]float64, len(t.batchSizes))
	for i, n := range t.batchSizes {
		sizes[i] = float64(n)
	}
	v["netdps.batch_size.mean"] = mean(sizes)
	hits, misses := t.cache.Hits.Value(), t.cache.Misses.Value()
	v["core.cache_hits"], v["core.cache_misses"] = hits, misses
	if hits+misses > 0 {
		v["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["evt.refits"] = float64(len(refits))
	v["evt.refit_s"] = seconds(layers["evt"])
	v["evt.refit_ms.p50"] = median(durs(refits, millis))
	v["campaign.commit_s"] = seconds(sumDur(commitSelf))
	v["campaign.commit_us.p50"] = median(durs(commitSelf, micros))
	v["campaign.checkpoint_s"] = seconds(sumDur(spanDurs(t.checkpoint)))
	v["campaign.checkpoint_ms.p50"] = median(durs(spanDurs(t.checkpoint), millis))
	v["campaign.journal_bytes"] = mean(journalBytes)
	v["draws_to_decision"] = mean(draws)
	v["loss_bound_pct"] = median(bounds)
	ledger(rep, wall, layers, t.recorded, p.dominant)
	rep.notef("%d traced campaigns", len(walls))
	return rep, nil
}

func sameFile(a, b string) error {
	ra, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	rb, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if string(ra) != string(rb) {
		return fmt.Errorf("%s and %s differ", filepath.Base(a), filepath.Base(b))
	}
	return nil
}

func spanDurs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// ledger reports the wall time, the share no layer accounts for, the
// estimated tracing overhead, each layer's share, and whether the layers
// the workload is expected to spend most in (together) outweigh every
// other layer.
func ledger(rep *report, wall time.Duration, layers map[string]time.Duration, recorded int, expect ...string) {
	var attributed, expected, largestOther time.Duration
	other := ""
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := layers[name]
		attributed += d
		if slices.Contains(expect, name) {
			expected += d
		} else if d > largestOther {
			largestOther, other = d, name
		}
	}
	rep.values["bench.wall_s"] = seconds(wall)
	if wall <= 0 {
		return
	}
	rep.values["bench.unattributed_frac"] = 1 - float64(attributed)/float64(wall)
	rep.values["bench.trace_overhead_frac"] = float64(recorded) * float64(spanCost()) / float64(wall)
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(wall) }
	for _, name := range names {
		rep.notef("ledger %-9s %8.3fs %5.1f%% of wall", name, layers[name].Seconds(), share(layers[name]))
	}
	verdict := "confirmed"
	if expected <= largestOther {
		verdict = "NOT confirmed"
	}
	rep.notef("dominant layer %s: %s %.1f%% against %s %.1f%%",
		verdict, strings.Join(expect, "+"), share(expected), other, share(largestOther))
}

// spanCost measures what recording one span costs, by recording many
// into a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	var list []span
	start := time.Now()
	for i := 0; i < n; i++ {
		t.add(&list, t.now())
	}
	return time.Since(start) / n
}
