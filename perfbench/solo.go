package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"optassign/internal/campaign"
)

// soloParams is one optassign campaign shape. Both solo workloads set
// loss targets their campaigns cannot reach, so every campaign spends its
// whole draw budget: the work per campaign is the same whatever the
// seed, and the timings measure the program rather than the seeds.
type soloParams struct {
	instances          int // IPFwd-L1 pipeline instances, 3 tasks each
	loss               float64
	ninit, ndelta, max int
	cached             bool   // -cache -batch 64
	dominant           string // the layer the traced run should find largest
}

var (
	solo24 = soloParams{instances: 8, loss: 0.1, ninit: 2000, ndelta: 500, max: 4000, dominant: "netdps"}
	tight6 = soloParams{instances: 2, loss: 0.01, ninit: 1000, ndelta: 100, max: 4000, cached: true, dominant: "evt"}
)

// batchSize is the -batch value of the cached workload.
const batchSize = 64

// args is the optassign command line for one campaign; cached selects
// the -cache -batch stack.
func (p soloParams) args(seed int64, journal string, cached bool) []string {
	a := []string{
		"-benchmark", "IPFwd-L1",
		"-instances", strconv.Itoa(p.instances),
		"-loss", strconv.FormatFloat(p.loss, 'g', -1, 64),
		"-ninit", strconv.Itoa(p.ninit),
		"-ndelta", strconv.Itoa(p.ndelta),
		"-max", strconv.Itoa(p.max),
		"-seed", strconv.FormatInt(seed, 10),
		"-journal", journal,
	}
	if cached {
		a = append(a, "-cache", "-batch", strconv.Itoa(batchSize))
	}
	return a
}

// soloRun is one finished optassign process.
type soloRun struct {
	seed      int64
	journal   string
	start     time.Time
	firstLine time.Duration // launch to first stdout line: testbed built
	dur       time.Duration // launch to exit
	exit      int
	out       []string
	rssKiB    int64
}

func runOptassign(ctx context.Context, e *env, stderr *os.File, args []string) (soloRun, error) {
	c, err := startChild(stderr, filepath.Join(e.bin, "optassign"), args...)
	if err != nil {
		return soloRun{}, err
	}
	if err := c.wait(ctx); err != nil {
		return soloRun{}, err
	}
	return soloRun{
		start:     c.started,
		firstLine: c.firstLine,
		dur:       time.Since(c.started),
		exit:      c.exitCode(),
		out:       c.output(),
		rssKiB:    c.peakRSSKiB(),
	}, nil
}

// runSolo runs back-to-back optassign campaigns (a closed loop with one
// client) for the timed window, checking each campaign's output and
// journal as it exits, then runs the determinism probe.
func runSolo(ctx context.Context, e *env, p soloParams) (*report, error) {
	if e.trace {
		return traceSolo(ctx, e, p)
	}
	rep := newReport()
	stderr, err := os.Create(filepath.Join(e.work, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()

	// Each campaign is checked as soon as it exits, so the journal replays
	// (the solo "query") spread over the window like the campaigns do.
	// The checking is the client's think time: throughput counts only the
	// time a campaign was running.
	var (
		runs               []soloRun
		verdicts           []soloVerdict
		rss, draws, bounds []float64
		totalDraws         int
	)
	deadline := time.Now().Add(e.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := campaignSeed(e.seed, i)
		journal := filepath.Join(e.work, fmt.Sprintf("c%04d.journal", i))
		r, err := runOptassign(ctx, e, stderr, p.args(seed, journal, p.cached))
		if err != nil {
			return nil, err
		}
		r.seed, r.journal = seed, journal
		runs = append(runs, r)
		rss = append(rss, float64(r.rssKiB)/1024)

		v, err := verifySolo(p, r)
		rep.record(fmt.Sprintf("campaign %d (seed %d)", i, seed), err)
		if err == nil {
			totalDraws += v.draws
			draws = append(draws, float64(v.draws))
			bounds = append(bounds, v.bound)
			verdicts = append(verdicts, v)
		}
		if i > 0 { // the first journal is kept for the determinism probe
			os.Remove(journal)
			os.Remove(campaign.EstimatorCheckpointPath(journal))
		}
	}

	// The cached workload's probe drops -cache -batch; the other's runs
	// the traced harness.
	rep.record("determinism probe", probe(ctx, e, p, stderr, runs[0].seed, runs[0].journal, !p.cached))

	var setup, lengths, replayTimes []time.Duration
	var busy time.Duration
	for _, r := range runs {
		setup = append(setup, e.effective(r.start, r.start.Add(r.firstLine)))
		lengths = append(lengths, e.effective(r.start, r.start.Add(r.dur)))
		busy += lengths[len(lengths)-1]
	}
	for _, v := range verdicts {
		replayTimes = append(replayTimes, e.effective(v.replayStart, v.replayStart.Add(v.replay)))
	}
	rep.values["setup_s"] = median(durs(setup, seconds))
	rep.values["draws_per_s"] = float64(totalDraws) / busy.Seconds()
	rep.values["campaigns_per_s"] = float64(len(runs)) / busy.Seconds()
	rep.values["campaign_s.p50"] = median(durs(lengths, seconds))
	rep.values["peak_rss_mb"] = median(rss)
	rep.values["query_ms.p50"] = median(durs(replayTimes, millis))
	rep.notef("%d campaigns in %.2fs; highest percentile with 10 samples beyond it: p%g",
		len(runs), busy.Seconds(), supportedPercentile(len(runs)))
	rep.notef("campaign_s.p90 %.6g s, query_ms.p90 %.6g ms (not gated: tails, unsteady between runs)",
		percentile(durs(lengths, seconds), 90), percentile(durs(replayTimes, millis), 90))
	rep.notef("draws_to_decision %.6g draws (mean), loss_bound_pct %.6g %% (median)", mean(draws), median(bounds))
	return rep, nil
}

// soloVerdict is what one checked campaign contributes to the metrics.
type soloVerdict struct {
	draws       int
	bound       float64
	replayStart time.Time
	replay      time.Duration // time to replay the journal: the solo "query"
}

// verifySolo checks one campaign: a success exit code (0 satisfied, 2
// budget spent), a printed result consistent with that code, and a
// journal that replays to the printed sample count and best performance.
func verifySolo(p soloParams, r soloRun) (soloVerdict, error) {
	var v soloVerdict
	field := func(prefix string) (string, error) {
		for _, l := range r.out {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(l), prefix); ok {
				return strings.TrimSpace(rest), nil
			}
		}
		return "", fmt.Errorf("no %q line in the output", prefix)
	}
	if r.exit != 0 && r.exit != 2 {
		return v, fmt.Errorf("exit code %d", r.exit)
	}
	executed, err := field("executed ")
	if err != nil {
		return v, err
	}
	if v.draws, err = strconv.Atoi(strings.Fields(executed)[0]); err != nil {
		return v, fmt.Errorf("sample count: %w", err)
	}
	best, err := field("measured performance:")
	if err != nil {
		return v, err
	}
	best = strings.TrimSuffix(best, " PPS")
	bound, err := field("guaranteed loss bound:")
	if err != nil {
		return v, err
	}
	if v.bound, err = strconv.ParseFloat(strings.TrimSuffix(bound, "%"), 64); err != nil {
		return v, fmt.Errorf("loss bound: %w", err)
	}
	switch r.exit {
	case 0:
		if _, err := field("requirement met"); err != nil {
			return v, err
		}
		if v.bound > p.loss {
			return v, fmt.Errorf("satisfied with loss bound %.2f%% above the %.2f%% target", v.bound, p.loss)
		}
	case 2:
		if _, err := field("sample budget exhausted"); err != nil {
			return v, err
		}
		if v.draws != p.max {
			return v, fmt.Errorf("budget exhausted after %d draws, budget is %d", v.draws, p.max)
		}
	}

	v.replayStart = time.Now()
	st, err := campaign.LoadJournal(r.journal)
	v.replay = time.Since(v.replayStart)
	if err != nil {
		return v, fmt.Errorf("journal: %w", err)
	}
	if st.Header.Seed != r.seed || st.Quarantined != 0 || st.Truncated {
		return v, fmt.Errorf("journal: seed %d, %d quarantined, truncated %v", st.Header.Seed, st.Quarantined, st.Truncated)
	}
	if len(st.Results) != v.draws {
		return v, fmt.Errorf("journal replays to %d samples, campaign printed %d", len(st.Results), v.draws)
	}
	top := st.Results[0].Perf
	for _, res := range st.Results {
		if res.Perf > top {
			top = res.Perf
		}
	}
	if got := fmt.Sprintf("%.6g", top); got != best {
		return v, fmt.Errorf("journal best %s, campaign printed %s", got, best)
	}
	return v, nil
}

// probe is the determinism probe, run outside the timed window on a run's
// first campaign: it re-runs the campaign's seed through another stack,
// the traced in-process harness or optassign without -cache -batch, and
// requires a byte-identical journal.
func probe(ctx context.Context, e *env, p soloParams, stderr *os.File, seed int64, journal string, harness bool) error {
	out := filepath.Join(e.work, "probe.journal")
	if harness {
		if _, _, err := traceCampaign(ctx, newTracer(), p, seed, out); err != nil {
			return err
		}
	} else {
		r, err := runOptassign(ctx, e, stderr, p.args(seed, out, false))
		if err != nil {
			return err
		}
		if r.exit != 0 && r.exit != 2 {
			return fmt.Errorf("optassign exited %d", r.exit)
		}
	}
	return sameFile(journal, out)
}
