package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/coord"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/netgen"
	"optassign/internal/obs"
	"optassign/internal/remote"
)

// svcTracer records, per campaign, every measurement the coordinator
// makes through its source handle (client side: the remote round trip)
// and pairs each with the server-side measurement time of the same
// assignment.
type svcTracer struct {
	base time.Time

	mu       sync.Mutex
	server   map[string][]time.Duration // server times not yet paired, by assignment
	calls    map[string][]call          // by campaign id, in call order
	recorded int
}

// call is one measurement as the coordinator's handle saw it.
type call struct {
	span
	server time.Duration
}

func newSvcTracer() *svcTracer {
	return &svcTracer{base: time.Now(), server: map[string][]time.Duration{}, calls: map[string][]call{}}
}

func assignmentKey(a assign.Assignment) string { return fmt.Sprint(a.Ctx) }

// timedServerRunner is a measurement server's runner: the testbed, timed.
type timedServerRunner struct {
	tb *netdps.Testbed
	t  *svcTracer
}

func (r timedServerRunner) Measure(a assign.Assignment) (float64, error) {
	t0 := time.Now()
	perf, err := r.tb.Measure(a)
	d := time.Since(t0)
	k := assignmentKey(a)
	r.t.mu.Lock()
	r.t.server[k] = append(r.t.server[k], d)
	r.t.recorded++
	r.t.mu.Unlock()
	return perf, err
}

// timedSource hands the coordinator handles whose runner is timed.
type timedSource struct {
	coord.Source
	t *svcTracer
}

func (s timedSource) Acquire(spec coord.Spec) (coord.Handle, error) {
	h, err := s.Source.Acquire(spec)
	if err != nil {
		return nil, err
	}
	return timedHandle{h, spec.ID, s.t}, nil
}

type timedHandle struct {
	coord.Handle
	id string
	t  *svcTracer
}

func (h timedHandle) Runner() core.ContextRunner { return timedPool{h.Handle.Runner(), h.id, h.t} }

// timedPool times one campaign's calls into remote.ClientPool.
type timedPool struct {
	r  core.ContextRunner
	id string
	t  *svcTracer
}

func (p timedPool) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	t0 := time.Since(p.t.base)
	perf, err := p.r.MeasureContext(ctx, a)
	end := time.Since(p.t.base)
	k := assignmentKey(a)
	p.t.mu.Lock()
	c := call{span: span{t0, end}}
	if q := p.t.server[k]; len(q) > 0 {
		c.server, p.t.server[k] = q[0], q[1:]
	}
	p.t.calls[p.id] = append(p.t.calls[p.id], c)
	p.t.recorded++
	p.t.mu.Unlock()
	return perf, err
}

// onFitSchedule reports whether a campaign refits after its n-th draw.
func onFitSchedule(n int) bool {
	return n == svcNinit || n == svcMax || (n > svcNinit && n < svcMax && (n-svcNinit)%svcNdelta == 0)
}

// traceService rebuilds the service stack in-process — two measurement
// servers joined to a registry-fed remote.ClientPool, a coordinator over
// it, its HTTP handler on loopback — and drives it exactly as the
// untraced run drives campaignd. The coordinator runs its engine
// internally, so the engine's layers are read from the gaps between one
// campaign's measurements: the gap after a draw on the fit schedule holds
// the round's refit and checkpoint, every other gap a journal commit.
func traceService(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	t := newSvcTracer()
	dataDir := filepath.Join(e.work, "data")
	if err := seedTable(dataDir); err != nil {
		return nil, err
	}
	app, err := apps.ByName("IPFwd-L1", netgen.DefaultProfile())
	if err != nil {
		return nil, err
	}

	pool := remote.NewPool(remote.PoolConfig{})
	defer pool.Close()
	fleet := remote.NewRegistry(pool, remote.RegistryConfig{})
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go fleet.Serve(rl)
	defer fleet.Close()
	regCtx, regCancel := context.WithCancel(ctx)
	var regWG sync.WaitGroup
	defer regWG.Wait()
	defer regCancel()
	for i := 0; i < 2; i++ {
		tb, err := netdps.NewTestbed(app, svcInstances, netdps.WithSeed(campaignSeed(e.seed, -1)))
		if err != nil {
			return nil, err
		}
		srv := &remote.Server{Runner: timedServerRunner{tb, t}, Topo: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: app.Name()}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(l)
		defer srv.Close()
		registrant, err := remote.NewRegistrant(remote.RegistrantConfig{
			Dial:     func() (net.Conn, error) { return net.Dial("tcp", rl.Addr().String()) },
			Hello:    remote.Hello{Topology: tb.Machine.Topo, Tasks: tb.TaskCount(), Name: app.Name()},
			Addr:     l.Addr().String(),
			Identity: tb.Identity(),
		})
		if err != nil {
			return nil, err
		}
		regWG.Add(1)
		go func() {
			defer regWG.Done()
			registrant.Run(regCtx)
		}()
	}
	readyCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	err = pool.WaitReady(readyCtx, 2)
	cancel()
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	c, err := coord.Open(coord.Config{
		DataDir:       dataDir,
		MaxConcurrent: svcInFlight,
		Source:        timedSource{coord.PoolSource{Pool: pool}, t},
		TableBuf:      64,
		Metrics:       coord.NewMetrics(reg),
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: c.Handler(reg)}
	go hs.Serve(hl)
	defer hs.Close()
	cl := newClient("http://" + hl.Addr().String())
	if err := cl.waitHealthy(ctx, 60*time.Second); err != nil {
		return nil, err
	}

	camps, queries, window := drive(ctx, cl, e.seed, e.window)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	journalBytes := verifyService(ctx, rep, cl, dataDir, camps, queries)

	// Per-campaign ledger.
	var (
		wall, tails                          time.Duration
		queue, status, submit, refit, commit []time.Duration
		rtt, server, wire                    []time.Duration
		samples, gaps                        []float64
	)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sc := range camps {
		calls := t.calls[sc.id]
		if sc.err != nil || len(calls) == 0 {
			continue
		}
		submitted := sc.submitted.Sub(t.base)
		wall += sc.dur
		queue = append(queue, calls[0].start-submitted)
		tails += submitted + sc.dur - calls[len(calls)-1].end
		status = append(status, sc.status...)
		submit = append(submit, sc.submit)
		samples = append(samples, float64(sc.final.Samples))
		gaps = append(gaps, sc.final.GapPct)
		for i, cl := range calls {
			rtt = append(rtt, cl.dur())
			server = append(server, cl.server)
			wire = append(wire, cl.dur()-cl.server)
			if i == 0 {
				continue
			}
			gap := cl.start - calls[i-1].end
			if onFitSchedule(i) {
				refit = append(refit, gap)
			} else {
				commit = append(commit, gap)
			}
		}
	}
	var qrows []float64
	var late []time.Duration
	for _, q := range queries {
		late = append(late, q.sent.Sub(q.due))
		if q.err == nil {
			qrows = append(qrows, float64(len(q.ids)))
		}
	}

	v := rep.values
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	v["netdps.measure_calls"] = float64(len(server))
	v["netdps.measure_s"] = seconds(sumDur(server))
	v["netdps.measure_us.p50"] = median(durs(server, micros))
	v["evt.refits"] = float64(len(refit))
	v["evt.refit_s"] = seconds(sumDur(refit))
	v["evt.refit_ms.p50"] = median(durs(refit, millis))
	v["campaign.commit_s"] = seconds(sumDur(commit))
	v["campaign.commit_us.p50"] = median(durs(commit, micros))
	v["campaign.journal_bytes"] = mean(journalBytes)
	v["coord.queue_wait_ms.p50"] = median(durs(queue, millis))
	v["coord.status_ms.p50"] = median(durs(status, millis))
	v["coord.submit_ms.p50"] = median(durs(submit, millis))
	v["coord.submit_ms.p90"] = percentile(durs(submit, millis), 90)
	v["remote.rtt_us.p50"] = median(durs(rtt, micros))
	v["remote.server_measure_us.p50"] = median(durs(server, micros))
	v["remote.wire_us.p50"] = median(durs(wire, micros))
	if window > 0 {
		v["remote.inflight.mean"] = float64(sumDur(rtt)) / float64(window)
	}
	v["table.rows"] = float64(c.TableLen())
	v["table.query_rows.mean"] = mean(qrows)
	v["draws_to_decision"] = mean(samples)
	v["loss_bound_pct"] = median(gaps)
	v["bench.query_late_ms.p90"] = percentile(durs(late, millis), 90)
	ledger(rep, wall, map[string]time.Duration{
		"coord":    sumDur(queue) + tails,
		"remote":   sumDur(wire),
		"netdps":   sumDur(server),
		"evt":      sumDur(refit),
		"campaign": sumDur(commit),
	}, t.recorded, "remote", "coord")
	rep.notef("%d campaigns, %d queries in %.2fs", len(camps), len(queries), window.Seconds())
	return rep, nil
}
