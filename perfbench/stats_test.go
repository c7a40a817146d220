package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/t2"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got < 9.0999 || got > 9.1001 {
		t.Errorf("p90 of 1..10 = %v, want 9.1", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	parent := span{ms(0), ms(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"one child", []span{{ms(10), ms(20)}}, ms(90)},
		{"overlapping children count once", []span{{ms(10), ms(20)}, {ms(15), ms(30)}}, ms(80)},
		{"nested children count once", []span{{ms(40), ms(60)}, {ms(45), ms(50)}}, ms(80)},
		{"children outside the parent are clipped", []span{{ms(90), ms(120)}, {ms(200), ms(300)}}, ms(90)},
		{"all at once", []span{{ms(45), ms(50)}, {ms(90), ms(120)}, {ms(15), ms(30)}, {ms(40), ms(60)}, {ms(10), ms(20)}}, ms(50)},
		{"child covering everything", []span{{ms(-5), ms(105)}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRefitTimes(t *testing.T) {
	commits := []time.Duration{ms(10), ms(20), ms(30), ms(60), ms(70)}
	rounds := []time.Duration{ms(50), ms(100), ms(120)}
	checkpoints := []span{{ms(35), ms(40)}, {ms(80), ms(90)}, {ms(95), ms(110)}}
	got := refitTimes(commits, rounds, checkpoints)
	// Round 1: last commit 30, event 50, checkpoint 5 -> 15.
	// Round 2: last commit 70, event 100, checkpoints 10 + 5 of the one
	// running past the event -> 15.
	// Round 3: no commit of its own, starts at the previous event 100,
	// the rest of that checkpoint (100..110) is inside -> 10.
	want := []time.Duration{ms(15), ms(15), ms(10)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("refitTimes = %v, want %v", got, want)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Error("empty tally has a failure share")
	}
	tl.record("ok", nil)
	tl.record("bad", errors.New("boom"))
	for i := 0; i < 20; i++ {
		tl.record("more", errors.New("again"))
	}
	if tl.attempted != 22 || tl.failed != 21 || len(tl.errs) != 8 {
		t.Fatalf("tally = %d attempted, %d failed, %d messages", tl.attempted, tl.failed, len(tl.errs))
	}
	if tl.errs[0] != "bad: boom" {
		t.Errorf("first message %q", tl.errs[0])
	}
	if got := tl.frac(); got != 21.0/22 {
		t.Errorf("frac = %v", got)
	}
}

func TestCampaignSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := campaignSeed(7, i)
		if s <= 0 || s > 1<<31 {
			t.Fatalf("seed %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("seed %d repeats", s)
		}
		seen[s] = true
		if campaignSeed(7, i) != s {
			t.Fatal("campaignSeed is not deterministic")
		}
	}
	if campaignSeed(7, 0) == campaignSeed(8, 0) {
		t.Error("different run seeds give the same campaign seed")
	}
}

// TestVerifySoloCountsFailures checks that every way a campaign's output
// can disagree with itself or its journal is caught, and that the tally
// counts each checked campaign once.
func TestVerifySoloCountsFailures(t *testing.T) {
	topo := t2.UltraSPARCT2()
	journal := filepath.Join(t.TempDir(), "c.journal")
	j, err := campaign.CreateJournal(journal, campaign.JournalHeader{Benchmark: "IPFwd-L1", Topo: topo, Tasks: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, perf := range []float64{100, 300, 200} {
		if err := j.Append(assign.Assignment{Topo: topo, Ctx: []int{i}}, perf); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	p := soloParams{loss: 0.5, max: 3}
	out := func(executed, best, bound, verdict string) []string {
		return []string{
			"benchmark IPFwd-L1: 1 instances",
			"executed " + executed + " random assignments",
			"  measured performance:   " + best + " PPS",
			"  guaranteed loss bound:  " + bound + "%",
			verdict,
		}
	}
	exhausted := "sample budget exhausted before meeting the 0.50% requirement"
	met := "requirement met: loss <= 0.50% with 0.95 confidence"
	cases := []struct {
		name string
		run  soloRun
		ok   bool
	}{
		{"budget spent", soloRun{exit: 2, out: out("3", "300", "1.20", exhausted)}, true},
		{"satisfied", soloRun{exit: 0, out: out("3", "300", "0.40", met)}, true},
		{"crash exit code", soloRun{exit: 1, out: out("3", "300", "1.20", exhausted)}, false},
		{"satisfied above the target", soloRun{exit: 0, out: out("3", "300", "0.70", met)}, false},
		{"exhausted below the budget", soloRun{exit: 2, out: out("2", "300", "1.20", exhausted)}, false},
		{"best disagrees with the journal", soloRun{exit: 2, out: out("3", "200", "1.20", exhausted)}, false},
		{"missing result line", soloRun{exit: 2, out: []string{"executed 3 random assignments"}}, false},
	}
	var tl tally
	for _, c := range cases {
		c.run.journal, c.run.seed = journal, 9
		_, err := verifySolo(p, c.run)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		tl.record(c.name, err)
	}
	if tl.attempted != len(cases) || tl.failed != 5 {
		t.Errorf("tally %d/%d, want 5/%d", tl.failed, tl.attempted, len(cases))
	}

	// A journal that replays to another seed is a failure too.
	r := cases[0].run
	r.journal, r.seed = journal, 10
	if _, err := verifySolo(p, r); err == nil {
		t.Error("journal of another seed passed")
	}
}

// TestManifest keeps BENCHMARK.json in step with the definitions here and
// within the limits the manifest format sets.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Error("BENCHMARK.json is stale: regenerate it with -write-benchmark-json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %+v", d)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if !seen["setup_s"] || endToEnd[0] != (metricDef{"setup_s", "s", "lower", 0.25}) {
		t.Error("setup_s must lead the end-to-end metrics with the largest bound")
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("bad workload %q", w.name)
		}
		seen[w.name] = true
	}
}

func TestHostCorrection(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return base.Add(d) }
	// 100 samples over 5s: the reference loop takes twice its nominal
	// time for the first 2.5s and its nominal time after; a quarter of
	// the busy CPU time is stolen throughout.
	var samples []hostSample
	for i := 0; i < 100; i++ {
		s := hostSample{at: at(time.Duration(i) * meterPeriod), ref: refNominal, busy: 8 * float64(i), steal: 2 * float64(i)}
		if i < 50 {
			s.ref = 2 * refNominal
		}
		samples = append(samples, s)
	}
	if got, want := correct(samples, at(100*time.Millisecond), at(300*time.Millisecond)), 200*time.Millisecond*3/4/2; got != want {
		t.Errorf("slow phase: corrected %v, want %v", got, want)
	}
	if got, want := correct(samples, at(4*time.Second), at(4200*time.Millisecond)), 200*time.Millisecond*3/4; got != want {
		t.Errorf("fast phase: corrected %v, want %v", got, want)
	}
	// An interval past the last sample still rests on meterMinSamples.
	if got, want := correct(samples, at(9*time.Second), at(9100*time.Millisecond)), 100*time.Millisecond*3/4; got != want {
		t.Errorf("after the samples: corrected %v, want %v", got, want)
	}
	if got := correct(nil, at(0), at(time.Second)); got != time.Second {
		t.Errorf("no samples: corrected %v, want the wall-clock length", got)
	}
	// A program that waits for its disk half the time keeps less than one
	// CPU busy: a stolen tick then delays it by a whole tick.
	var serial []hostSample
	for i := 0; i < 40; i++ {
		serial = append(serial, hostSample{at: at(time.Duration(i) * meterPeriod), ref: refNominal, busy: 3 * float64(i), steal: float64(i)})
	}
	if got, want := correct(serial, at(0), at(time.Second)), time.Second*4/5; got != want {
		t.Errorf("mostly idle: corrected %v, want %v", got, want)
	}
	// No busy time read (no /proc/stat): only the speed correction.
	flat := []hostSample{{at: at(0), ref: refNominal / 2}, {at: at(time.Second), ref: refNominal / 2}}
	if got := correct(flat, at(0), at(time.Second)); got != 2*time.Second {
		t.Errorf("speed only: corrected %v, want 2s", got)
	}
}

// TestMeter runs the meter against the real host: it samples until
// closed, and corrects intervals while it samples.
func TestMeter(t *testing.T) {
	m := startMeter()
	start := time.Now()
	for {
		m.mu.Lock()
		n := len(m.samples)
		m.mu.Unlock()
		if n >= 3 {
			break
		}
		time.Sleep(meterPeriod / 5)
	}
	if got := m.effective(start, start.Add(time.Second)); got <= 0 {
		t.Errorf("corrected a second to %v", got)
	}
	m.close()
	stolen, speed := m.summary()
	if stolen < 0 || stolen >= 1 || speed <= 0 {
		t.Errorf("summary: stolen %v, speed %v", stolen, speed)
	}
}
