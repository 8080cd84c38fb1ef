package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// launcher starts the service a workload runs against and reports its
// set-up time and the exact command line it was started with.
type launcher func(ctx context.Context, w *workloadDef) (*target, time.Duration, []string, error)

// processLauncher starts the shipped binaries with their default flags;
// only -addr (and pricefleet's -nodes) is set.
func processLauncher(bins map[string]string) launcher {
	return func(ctx context.Context, w *workloadDef) (*target, time.Duration, []string, error) {
		if w.fleet {
			return startProcess(ctx, bins["pricefleet"], []string{"-nodes", fmt.Sprint(fleetNodes)}, fleetReady(fleetNodes))
		}
		return startProcess(ctx, bins["pricesrvd"], nil, nodeReady)
	}
}

// setupBoots is how many times a run starts its service: set-up time
// is the median of the starts, and the last one serves the workload.
const setupBoots = 5

// runConfig is one invocation's settings.
type runConfig struct {
	workload *workloadDef
	seed     int64
	dur      time.Duration
	sizes    sizes
	// boots is how many times the service is started for the set-up
	// median; the last start serves the workload.
	boots  int
	launch launcher
	// spans, for a traced run, is where the span file is written.
	spans string
}

// e2eRun is one timed pass of a workload against a running service.
type e2eRun struct {
	recs      []record
	setups    []float64
	argv      []string
	rss       float64
	joules    float64 // modelled joules booked during the run, priming included
	evaluated float64 // options the lattice priced for them
	check     *checker
}

// conns is the load generator's concurrency ceiling: never more I/O
// goroutines or connections than the machine has cores.
func conns() int { return runtime.NumCPU() }

// runE2E boots the service cfg.boots times (timing each start), primes
// the last instance, drives the workload's requests through send-
// wrapped HTTP for cfg.dur, and stops the service.
func runE2E(ctx context.Context, cfg runConfig, wrap func(sender) sender) (_ *e2eRun, err error) {
	w := cfg.workload
	out := &e2eRun{check: newChecker(cfg.seed)}
	var tgt *target
	for k := 0; k < cfg.boots; k++ {
		t, d, argv, err := cfg.launch(ctx, w)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d.Seconds())
		out.argv = argv
		if k == cfg.boots-1 {
			tgt = t
		} else if err := t.stop(); err != nil {
			return nil, err
		}
	}
	defer func() { err = errors.Join(err, tgt.stop()) }()

	client := newHTTPClient(conns())
	defer client.CloseIdleConnections()
	m0, err := scrapeMetrics(ctx, client, tgt.base)
	if err != nil {
		return nil, err
	}
	in, err := w.inputs(cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	send := httpSender(client, tgt.base)
	if err := prime(ctx, in.prime, send); err != nil {
		return nil, err
	}
	if wrap != nil {
		send = wrap(send)
	}
	out.recs = drive(ctx, w, in, cfg.dur, send)
	m1, err := scrapeMetrics(ctx, client, tgt.base)
	if err != nil {
		return nil, err
	}
	j0, p0 := energy(m0)
	j1, p1 := energy(m1)
	out.joules, out.evaluated = j1-j0, p1-p0
	if out.rss, err = tgt.rssMB(); err != nil {
		return nil, err
	}
	out.check.observe(out.recs)
	return out, nil
}

// prime sends the hot-set requests before timing.
func prime(ctx context.Context, reqs []*request, send sender) error {
	var (
		mu   sync.Mutex
		errs error
	)
	parallel(len(reqs), func(i int) {
		if res := send(ctx, reqs[i]); res.err != nil {
			mu.Lock()
			errs = errors.Join(errs, fmt.Errorf("priming: %w", res.err))
			mu.Unlock()
		}
	})
	return errs
}

// drive runs the workload's timed requests: a closed loop of w.clients
// callers, or the open-loop arrival schedule on conns() senders.
func drive(ctx context.Context, w *workloadDef, in *inputs, dur time.Duration, send sender) []record {
	if w.clients > 0 {
		return closedLoop(ctx, w.clients, dur, in.next, send)
	}
	return openLoop(ctx, conns(), in.schedule(dur), send)
}

// energy reads the modelled-energy ledger from a /metrics scrape: the
// joules booked and the options (contract evaluations) they paid for.
// A fleet router reports its members' roll-up; a node reports its price
// and scenario paths separately.
func energy(m map[string]float64) (joules, evaluated float64) {
	if j, ok := m["binopt_fleet_modelled_joules_total"]; ok {
		return j, m["binopt_fleet_options_priced_total"]
	}
	return m["binopt_modelled_joules_total"] + m["binopt_scenario_modelled_joules_total"],
		m["binopt_options_priced_total"] + m["binopt_scenario_evaluations_total"]
}

// answered returns the successful pricing requests among recs: the
// ones latency statistics are taken over (invalidations price nothing).
func answered(recs []record) []record {
	var out []record
	for _, r := range recs {
		if r.res.err == nil && r.req.path != "/v1/invalidate" {
			out = append(out, r)
		}
	}
	return out
}

// latenciesMS returns the ascending latencies of the successful
// pricing requests, in milliseconds.
func latenciesMS(recs []record) []float64 {
	var out []float64
	for _, r := range answered(recs) {
		out = append(out, float64(r.latency())/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out
}

// failures counts the failed calls among recs.
func failures(recs []record) (n int, first error) {
	for _, r := range recs {
		if r.res.err != nil {
			if n == 0 {
				first = r.res.err
			}
			n++
		}
	}
	return n, first
}

// runUntraced is the end-to-end measurement: the workload against
// fresh server processes, every end-to-end metric, answers checked.
func runUntraced(ctx context.Context, cfg runConfig, env Env) (*Result, error) {
	run, err := runE2E(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	env.Servers = append(env.Servers, run.argv)
	res := &Result{Env: env, Metrics: map[string]Metric{}}
	if err := res.settle(run); err != nil {
		return nil, err
	}

	w := cfg.workload
	n := len(answered(run.recs))
	open := w.clients == 0
	f := figures(run.recs, open, w.tail)
	clean := fmt.Sprintf("the best %d of %d windows", f.clean, runWindows)
	if open {
		res.set("options_per_s", f.rate, n, "whole run")
	} else {
		res.set("options_per_s", f.rate, n, "median of "+clean)
	}
	res.set("latency_p50_ms", percentile(f.lat, 50), len(f.lat), "over "+clean)
	note := fmt.Sprintf("p%g over %s", w.tail, clean)
	if b := beyond(len(f.lat), w.tail); b < minBeyond {
		note += fmt.Sprintf(", only %d samples beyond", b)
	}
	res.set("latency_tail_ms", percentile(f.lat, w.tail), len(f.lat), note)
	res.set("joules_per_option", run.joules/run.evaluated, int(run.evaluated), "")
	res.set("setup_s", median(run.setups), len(run.setups), "median")
	res.set("server_rss_mb", run.rss, 1, "VmHWM")
	return res, nil
}

// settle verifies the run's answers and fills correct/attempted/failed.
func (r *Result) settle(run *e2eRun) error {
	wrong, err := run.check.verify()
	if err != nil {
		return err
	}
	failed, _ := failures(run.recs)
	r.Attempted = len(run.recs)
	r.Failed = failed + len(wrong)
	r.Mismatches = wrong
	r.Correct = len(wrong) == 0
	return nil
}

// defaultOutDir and defaultSpans place a run's files under the
// checkout's build directory.
func defaultOutDir(root string) string { return filepath.Join(root, ".bench_build", "results") }

func defaultSpans(root string, w string, seed int64) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.json", w, seed))
}
