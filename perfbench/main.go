// Command perfbench is the repository's campaign benchmark: it drives the
// paper's §5.3 loop — draw, measure, journal, fit the tail, decide — through
// three workloads and reports what a user of each pays for it.
//
// Usage (from the repository root, through the wrapper that builds the
// programs under test first):
//
//	bash perfbench/run.sh --workload solo-24t|tight-6t-cached|service-fleet|all
//	                      --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) drive only the built optassign, campaignd and
// measured binaries and campaignd's HTTP API, and print the end-to-end
// metrics. Traced runs (--trace 1) rebuild the same stacks in-process from
// the public package APIs, time every layer from the outside, and print
// the per-layer metrics. Every run checks the outputs of every operation
// it drove. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// -write-benchmark-json FILE writes the benchmark manifest (workloads,
// metrics, bounds) from the definitions below and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen before
// a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"draws_per_s", "draws/s", "higher", 0.25},
	{"campaigns_per_s", "campaigns/s", "higher", 0.25},
	{"campaign_s.p50", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.1},
	{"query_ms.p50", "ms", "lower", 0.25},
}

// perLayer is the traced run's ledger. Layers a workload does not reach
// report 0.
var perLayer = []metricDef{
	{Name: "search.draws", Unit: "count", Better: "higher"},
	{Name: "search.next_s", Unit: "s", Better: "lower"},
	{Name: "search.next_us.p50", Unit: "us", Better: "lower"},
	{Name: "netdps.measure_calls", Unit: "count", Better: "lower"},
	{Name: "netdps.measure_s", Unit: "s", Better: "lower"},
	{Name: "netdps.measure_us.p50", Unit: "us", Better: "lower"},
	{Name: "netdps.batch_calls", Unit: "count", Better: "lower"},
	{Name: "netdps.batch_size.mean", Unit: "count", Better: "higher"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher"},
	{Name: "core.cache_misses", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "evt.refits", Unit: "count", Better: "lower"},
	{Name: "evt.refit_s", Unit: "s", Better: "lower"},
	{Name: "evt.refit_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "campaign.commit_s", Unit: "s", Better: "lower"},
	{Name: "campaign.commit_us.p50", Unit: "us", Better: "lower"},
	{Name: "campaign.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "campaign.checkpoint_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "campaign.journal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "coord.queue_wait_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "coord.status_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "coord.submit_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "coord.submit_ms.p90", Unit: "ms", Better: "lower"},
	{Name: "remote.rtt_us.p50", Unit: "us", Better: "lower"},
	{Name: "remote.server_measure_us.p50", Unit: "us", Better: "lower"},
	{Name: "remote.wire_us.p50", Unit: "us", Better: "lower"},
	{Name: "remote.inflight.mean", Unit: "count", Better: "higher"},
	{Name: "table.rows", Unit: "count", Better: "higher"},
	{Name: "table.query_rows.mean", Unit: "count", Better: "higher"},
	{Name: "draws_to_decision", Unit: "draws", Better: "lower"},
	{Name: "loss_bound_pct", Unit: "%", Better: "lower"},
	{Name: "bench.wall_s", Unit: "s", Better: "lower"},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.query_late_ms.p90", Unit: "ms", Better: "lower"},
}

// workload is one set of inputs the benchmark drives.
type workload struct {
	name, why string
	run       func(ctx context.Context, e *env) (*report, error)
}

var workloads = []workload{
	{
		name: "solo-24t",
		why:  "serial optassign campaigns on 24 tasks: measurement dominates, classes never repeat, so cache and batch changes should not move it",
		run:  func(ctx context.Context, e *env) (*report, error) { return runSolo(ctx, e, solo24) },
	},
	{
		name: "tight-6t-cached",
		why:  "cached, batched optassign campaigns on 6 tasks that spend a 4000-draw budget: EVT refits and checkpoints dominate, measurement is mostly cache hits",
		run:  func(ctx context.Context, e *env) (*report, error) { return runSolo(ctx, e, tight6) },
	},
	{
		name: "service-fleet",
		why:  "campaignd with two measured servers over loopback, 2 campaigns in flight plus an open-loop query stream: the only path through coord, remote and table",
		run:  runService,
	},
}

// env is what a workload run needs from the command line.
type env struct {
	bin    string        // directory holding the built binaries
	work   string        // this run's private data directory
	seed   int64         // the run's seed; every input derives from it
	window time.Duration // how long the timed loop runs
	trace  bool
	meter  *meter // samples the host during untraced runs; nil when traced
}

// effective is the length of [a, b] with the host's slowdown taken out
// (see host.go). Traced runs report raw times: their per-layer figures
// are shares of their own wall time.
func (e *env) effective(a, b time.Time) time.Duration {
	if e.meter == nil {
		return b.Sub(a)
	}
	return e.meter.effective(a, b)
}

// report is a workload run's outcome: metric values by name, the
// operation tally and free-text notes for the log.
type report struct {
	tally
	values map[string]float64
	notes  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "run seed; every campaign seed and spec derives from it")
	secs := flag.Int("seconds", 20, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced in-process harness and reports per-layer metrics")
	bin := flag.String("bin", "", "directory holding the optassign, campaignd and measured binaries")
	work := flag.String("work", "", "directory for per-run data; each run uses and removes a fresh subdirectory")
	manifest := flag.String("write-benchmark-json", "", "write the benchmark manifest to this file and exit")
	flag.Parse()

	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fatal(err)
		}
		return
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	switch {
	case len(chosen) == 0:
		fatal(fmt.Errorf("unknown workload %q (want %s or all)", *name, workloadNames()))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	case *secs < 1:
		fatal(fmt.Errorf("-seconds must be at least 1"))
	case *bin == "" || *work == "":
		fatal(errors.New("-bin and -work are required (run through perfbench/run.sh)"))
	}

	// Ctrl-C or SIGTERM cancels the run; every child process is stopped
	// before the command exits, and no result is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(runDir)

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, w := range chosen {
		e := &env{
			bin:    *bin,
			work:   filepath.Join(runDir, w.name),
			seed:   *seed,
			window: time.Duration(*secs) * time.Second,
			trace:  *trace == 1,
		}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			fatal(err)
		}
		if !e.trace {
			e.meter = startMeter()
		}
		rep, err := w.run(ctx, e)
		if e.meter != nil {
			e.meter.close()
		}
		if err != nil {
			os.RemoveAll(runDir)
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}

		values := make([]float64, len(defs))
		for i, d := range defs {
			v, ok := rep.values[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				rep.record("metric "+d.Name, fmt.Errorf("no finite value (got %v)", v))
				v = 0
			}
			values[i] = v
		}
		fmt.Printf("== %s (seed %d, %ds window, trace %d)\n", w.name, *seed, *secs, *trace)
		if e.meter != nil {
			stolen, speed := e.meter.summary()
			fmt.Printf("# host: %.1f%% of the time stolen, reference loop speed %.4f of nominal; times are corrected for both\n", 100*stolen, speed)
		}
		for _, n := range rep.notes {
			fmt.Printf("# %s\n", n)
		}
		for _, msg := range rep.errs {
			fmt.Printf("# FAILED %s\n", msg)
		}
		fmt.Printf("%-30s %14.6g %s\n", "failed_frac", rep.frac(), "ratio")
		for i, d := range defs {
			fmt.Printf("%-30s %14.6g %s\n", d.Name, values[i], d.Unit)
			key := d.Name
			if len(chosen) > 1 {
				key = w.name + "/" + d.Name
			}
			out.Metrics[key] = metricValue{Value: values[i], Unit: d.Unit}
		}
		out.Attempted += rep.attempted
		out.Failed += rep.failed
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// manifest is BENCHMARK.json, with its keys in a fixed order.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestWork `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the timed window the manifest sets for every run.
const runSeconds = 35

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
	}
	return m
}

func writeManifest(path string) error {
	raw, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
