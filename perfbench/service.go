package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optassign/internal/campaign"
	"optassign/internal/coord"
	"optassign/internal/table"
)

// The service workload's shape. Its campaigns, like the solo ones, set a
// loss target they cannot reach, so each spends the same 2000-draw budget
// (six estimation rounds) whatever its seed.
const (
	svcInstances = 8
	svcLossPct   = 0.1
	svcNinit     = 1000
	svcNdelta    = 200
	svcMax       = 2000
	svcInFlight  = 2  // campaigns the client keeps running
	svcQueryRate = 20 // open-loop queries per second
	svcPoll      = 20 * time.Millisecond
	svcSeedRows  = 2000 // rows the result table holds before the first campaign
	svcSetups    = 5    // fleet launches per run; setup_s is their median
	svcTestbed   = "pool:IPFwd-L1"
)

// archiveBenchmarks are the benchmark names of the seeded rows.
var archiveBenchmarks = []string{"Aho-Corasick", "IPFwd-L1", "IPFwd-Mem", "Packet-analyzer", "Stateful", "IPFwd-intadd", "IPFwd-intmul"}

// Query kinds: kindLive asks for this run's completed campaigns and must
// list every one the client has seen complete; kindArchive asks for a
// fixed slice of the seeded rows and must count them exactly.
const (
	kindLive    = "testbed=" + svcTestbed + ",status=completed"
	kindArchive = "testbed=archive,benchmark=Stateful,satisfied=true"
)

// seedTable writes the rows every query runs against before the service
// starts: promoted rows of earlier campaigns on another testbed.
func seedTable(dataDir string) error {
	t, err := table.Create(filepath.Join(dataDir, "table"), coord.CampaignsSchema(), 256)
	if err != nil {
		return err
	}
	for i := 0; i < svcSeedRows; i++ {
		best := 7e6 + float64(i%997)*1000
		if err := t.Insert(
			fmt.Sprintf("archive-%05d", i), archiveBenchmarks[i%len(archiveBenchmarks)], "archive", "", "completed",
			int64(i), int64(24), int64(1000+i%3000), int64(0),
			2.5, best, best*1.01, best*1.005, best*1.02, 2.0,
			archiveSatisfied(i), int64(1700000000+i), int64(1700000100+i),
		); err != nil {
			t.Close()
			return err
		}
	}
	if err := t.Commit(); err != nil {
		t.Close()
		return err
	}
	return t.Close()
}

func archiveSatisfied(i int) bool { return (i/len(archiveBenchmarks))%2 == 0 }

// archiveMatches is how many seeded rows kindArchive must return.
func archiveMatches() int {
	n := 0
	for i := 0; i < svcSeedRows; i++ {
		if archiveBenchmarks[i%len(archiveBenchmarks)] == "Stateful" && archiveSatisfied(i) {
			n++
		}
	}
	return n
}

// client speaks campaignd's HTTP API over one connection. The workload
// drives the service through two: one carries the campaigns' submits and
// status polls, the other the query stream, so neither class of request
// queues behind the other inside the client.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: strings.TrimRight(base, "/"), hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}}
}

// call performs one request and decodes a 2xx JSON body into out. It
// returns the status code.
func (c *client) call(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = strings.NewReader(string(raw))
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// waitHealthy polls /healthz until it answers 200.
func (c *client) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, err := c.call(ctx, "GET", "/healthz", nil, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not healthy within %v: %v", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// svcCampaign is one campaign as the client saw it.
type svcCampaign struct {
	id        string
	submitted time.Time     // when the submit request was sent
	submit    time.Duration // submit round trip
	code      int
	dur       time.Duration // submit sent to terminal state observed
	final     coord.Status
	status    []time.Duration // status poll round trips
	err       error
}

// svcQuery is one open-loop query.
type svcQuery struct {
	expr      string
	due, sent time.Time
	lat       time.Duration // from due time to answer
	ids       map[string]bool
	err       error
}

// drive runs the closed campaign loop through c and the open query loop
// through a second connection against the service for the window, and
// waits for every request it started.
func drive(ctx context.Context, c *client, runSeed int64, window time.Duration) (camps []*svcCampaign, qs []*svcQuery, wall time.Duration) {
	reads := newClient(c.base)
	defer reads.hc.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(window)
	var (
		mu        sync.Mutex
		completed []string // ids in the order the client saw them complete
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < svcInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1))
				seed := campaignSeed(runSeed, i)
				sc := runCampaign(ctx, c, fmt.Sprintf("bench-%04d-%d", i, seed), seed)
				mu.Lock()
				camps = append(camps, sc)
				if sc.err == nil && sc.final.State == coord.StateCompleted {
					completed = append(completed, sc.id)
				}
				mu.Unlock()
			}
		}()
	}
	campaignsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(campaignsDone)
	}()

	// Open loop: query k is due at start + k/rate whether or not earlier
	// queries have been answered; latency counts from the due time.
	var qwg sync.WaitGroup
	period := time.Second / svcQueryRate
queries:
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-campaignsDone:
			timer.Stop()
			break queries
		case <-timer.C:
		}
		q := &svcQuery{expr: kindLive, due: due}
		if k%2 == 1 {
			q.expr = kindArchive
		}
		mu.Lock()
		known := append([]string(nil), completed...)
		qs = append(qs, q)
		mu.Unlock()
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			runQuery(ctx, reads, q, known)
		}()
	}
	wall = time.Since(start)
	qwg.Wait()
	return camps, qs, wall
}

// runCampaign submits one campaign and polls it to a terminal state.
func runCampaign(ctx context.Context, c *client, id string, seed int64) *svcCampaign {
	sc := &svcCampaign{id: id}
	spec := coord.Spec{
		ID: id, Benchmark: "IPFwd-L1", Instances: svcInstances, LossPct: svcLossPct,
		Ninit: svcNinit, Ndelta: svcNdelta, MaxSamples: svcMax, Seed: seed,
	}
	sc.submitted = time.Now()
	sc.code, sc.err = c.call(ctx, "POST", "/campaigns", spec, &sc.final)
	sc.submit = time.Since(sc.submitted)
	if sc.err == nil && sc.code != http.StatusCreated {
		sc.err = fmt.Errorf("submit answered %d, want 201", sc.code)
	}
	for sc.err == nil && !sc.final.State.Terminal() && sc.final.State != coord.StateFailed {
		select {
		case <-ctx.Done():
			sc.err = ctx.Err()
			return sc
		case <-time.After(svcPoll):
		}
		t0 := time.Now()
		_, sc.err = c.call(ctx, "GET", "/campaigns/"+id, nil, &sc.final)
		sc.status = append(sc.status, time.Since(t0))
	}
	sc.dur = time.Since(sc.submitted)
	return sc
}

type queryAnswer struct {
	Rows  []map[string]any `json:"rows"`
	Count int              `json:"count"`
}

// runQuery sends one query and checks its answer.
func runQuery(ctx context.Context, c *client, q *svcQuery, known []string) {
	q.sent = time.Now()
	var ans queryAnswer
	_, q.err = c.call(ctx, "GET", "/query?q="+url.QueryEscape(q.expr), nil, &ans)
	q.lat = time.Since(q.due)
	if q.err != nil {
		return
	}
	q.ids = make(map[string]bool, len(ans.Rows))
	for _, row := range ans.Rows {
		id, _ := row["id"].(string)
		q.ids[id] = true
	}
	switch q.expr {
	case kindLive:
		for _, id := range known {
			if !q.ids[id] {
				q.err = fmt.Errorf("answer lacks campaign %s, completed before the query was sent", id)
				return
			}
		}
	case kindArchive:
		if want := archiveMatches(); ans.Count != want || len(ans.Rows) != want {
			q.err = fmt.Errorf("answer has %d rows (count %d), want %d", len(ans.Rows), ans.Count, want)
		}
	}
}

// verifyService checks every campaign and query of a run: each submit
// answered 201, each campaign ended completed, each promoted row matches
// its journal, and each query answer was complete. It returns the journal
// sizes for the ledger.
func verifyService(ctx context.Context, rep *report, c *client, dataDir string, camps []*svcCampaign, queries []*svcQuery) []float64 {
	var all queryAnswer
	_, err := c.call(ctx, "GET", "/query?q="+url.QueryEscape("testbed="+svcTestbed), nil, &all)
	rows := map[string]map[string]any{}
	for _, row := range all.Rows {
		id, _ := row["id"].(string)
		rows[id] = row
	}
	var sizes []float64
	for _, sc := range camps {
		cerr := sc.err
		if cerr == nil && err != nil {
			cerr = fmt.Errorf("listing promoted rows: %w", err)
		}
		if cerr == nil {
			var size int64
			size, cerr = checkPromoted(sc, rows[sc.id], filepath.Join(dataDir, "journals", sc.id+".journal"))
			sizes = append(sizes, float64(size))
		}
		rep.record("campaign "+sc.id, cerr)
	}
	for i, q := range queries {
		rep.record(fmt.Sprintf("query %d (%s)", i, q.expr), q.err)
	}
	return sizes
}

// checkPromoted checks one finished campaign against its promoted row and
// its journal; it returns the journal's size.
func checkPromoted(sc *svcCampaign, row map[string]any, journal string) (int64, error) {
	if sc.final.State != coord.StateCompleted {
		return 0, fmt.Errorf("ended %s (%s), want completed", sc.final.State, sc.final.Err)
	}
	if row == nil {
		return 0, errors.New("no promoted row")
	}
	samples, _ := row["samples"].(float64)
	best, _ := row["best"].(float64)
	gap, _ := row["gap_pct"].(float64)
	satisfied, _ := row["satisfied"].(bool)
	if int(samples) != sc.final.Samples {
		return 0, fmt.Errorf("row has %v samples, status %d", samples, sc.final.Samples)
	}
	if satisfied && gap > svcLossPct {
		return 0, fmt.Errorf("satisfied with gap %.3f%% above the %.2f%% target", gap, svcLossPct)
	}
	if !satisfied && sc.final.Samples != svcMax {
		return 0, fmt.Errorf("unsatisfied after %d samples, budget is %d", sc.final.Samples, svcMax)
	}
	st, err := campaign.LoadJournal(journal)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if len(st.Results) != int(samples) {
		return 0, fmt.Errorf("journal replays to %d samples, row has %v", len(st.Results), samples)
	}
	top := st.Results[0].Perf
	for _, r := range st.Results {
		if r.Perf > top {
			top = r.Perf
		}
	}
	if top != best {
		return 0, fmt.Errorf("journal best %v, row best %v", top, best)
	}
	fi, err := os.Stat(journal)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// fleet is a running campaignd with its measured servers.
type fleet struct {
	campaignd *child
	measured  []*child
	client    *client
}

// launchFleet starts campaignd hosting a registry and two measured
// servers that join it, all on ephemeral loopback ports, and returns once
// /healthz answers. The time it took is the service's set-up time.
func launchFleet(ctx context.Context, e *env, dataDir string, stderr io.Writer) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{}
	cd, err := startChild(stderr, filepath.Join(e.bin, "campaignd"),
		"-addr", "127.0.0.1:0", "-data", dataDir, "-max-concurrent", strconv.Itoa(svcInFlight),
		"-registry", "127.0.0.1:0", "-min-servers", "2")
	if err != nil {
		return nil, 0, err
	}
	f.campaignd = cd
	fail := func(err error) (*fleet, time.Duration, error) {
		f.stop()
		return nil, 0, err
	}
	reg, err := cd.waitLine(ctx, "fleet registry at ", 60*time.Second)
	if err != nil {
		return fail(err)
	}
	reg, _, _ = strings.Cut(reg, ";")
	for i := 0; i < 2; i++ {
		m, err := startChild(stderr, filepath.Join(e.bin, "measured"),
			"-addr", "127.0.0.1:0", "-register", reg, "-benchmark", "IPFwd-L1",
			"-instances", strconv.Itoa(svcInstances), "-seed", strconv.FormatInt(campaignSeed(e.seed, -1), 10),
			"-drain", "2s")
		if err != nil {
			return fail(err)
		}
		f.measured = append(f.measured, m)
	}
	base, err := cd.waitLine(ctx, "campaign service at ", 60*time.Second)
	if err != nil {
		return fail(err)
	}
	base, _, _ = strings.Cut(base, " ")
	f.client = newClient(base)
	if err := f.client.waitHealthy(ctx, 60*time.Second); err != nil {
		return fail(err)
	}
	return f, time.Since(start), nil
}

// stop shuts the fleet down in order — servers drain from the registry
// first, then campaignd — and returns once every process has exited.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, m := range f.measured {
		wg.Add(1)
		go func(m *child) {
			defer wg.Done()
			m.stop(5 * time.Second)
		}(m)
	}
	wg.Wait()
	if f.campaignd != nil {
		f.campaignd.stop(10 * time.Second)
	}
}

// runService launches the fleet svcSetups times (keeping the last),
// drives it for the window, checks everything it drove and stops it.
func runService(ctx context.Context, e *env) (*report, error) {
	if e.trace {
		return traceService(ctx, e)
	}
	rep := newReport()
	stderr, err := os.Create(filepath.Join(e.work, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()

	type launch struct {
		start time.Time
		dur   time.Duration
	}
	var setups []launch
	var f *fleet
	var dataDir string
	for i := 0; i < svcSetups; i++ {
		if f != nil {
			f.stop()
		}
		dataDir = filepath.Join(e.work, fmt.Sprintf("data%d", i))
		if err := seedTable(dataDir); err != nil {
			return nil, err
		}
		l := launch{start: time.Now()}
		if f, l.dur, err = launchFleet(ctx, e, dataDir, stderr); err != nil {
			return nil, err
		}
		setups = append(setups, l)
	}
	defer f.stop()

	start := time.Now()
	camps, queries, wall := drive(ctx, f.client, e.seed, e.window)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hwm, err := liveHWMKiB(f.campaignd.cmd.Process.Pid)
	rep.record("campaignd memory reading", err)
	verifyService(ctx, rep, f.client, dataDir, camps, queries)

	var lengths, submits, qlat []time.Duration
	draws := 0
	done := 0
	for _, sc := range camps {
		submits = append(submits, sc.submit)
		if sc.err == nil && sc.final.State == coord.StateCompleted {
			lengths = append(lengths, e.effective(sc.submitted, sc.submitted.Add(sc.dur)))
			draws += sc.final.Samples
			done++
		}
	}
	for _, q := range queries {
		qlat = append(qlat, e.effective(q.due, q.due.Add(q.lat)))
	}
	var setup []time.Duration
	for _, s := range setups {
		setup = append(setup, e.effective(s.start, s.start.Add(s.dur)))
	}
	window := e.effective(start, start.Add(wall))
	v := rep.values
	v["setup_s"] = median(durs(setup, seconds))
	v["draws_per_s"] = float64(draws) / window.Seconds()
	v["campaigns_per_s"] = float64(done) / window.Seconds()
	v["campaign_s.p50"] = median(durs(lengths, seconds))
	v["peak_rss_mb"] = float64(hwm) / 1024
	v["query_ms.p50"] = median(durs(qlat, millis))
	rep.notef("campaign_s.p90 %.6g s, query_ms.p90 %.6g ms (not gated: tails, unsteady between runs)",
		percentile(durs(lengths, seconds), 90), percentile(durs(qlat, millis), 90))
	var gaps, samples []float64
	for _, sc := range camps {
		samples = append(samples, float64(sc.final.Samples))
		gaps = append(gaps, sc.final.GapPct)
	}
	rep.notef("draws_to_decision %.6g draws (mean), loss_bound_pct %.6g %% (median)", mean(samples), median(gaps))
	rep.notef("submit %.3g ms (p50), %.3g ms (p90), uncorrected", median(durs(submits, millis)), percentile(durs(submits, millis), 90))
	rep.notef("%d campaigns and %d queries in %.2fs; highest percentile with 10 samples beyond it: p%g (campaigns), p%g (queries)",
		len(camps), len(queries), wall.Seconds(), supportedPercentile(len(camps)), supportedPercentile(len(queries)))
	return rep, nil
}
