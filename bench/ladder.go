package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"binopt/internal/accel"
	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/scenario"
	"binopt/internal/serve"
	"binopt/internal/telemetry"
)

// Rung budgets, as shares of the run's measuring time. Every rung the
// workload's requests reach runs for its share; the end-to-end pass at
// the top gets the largest.
const (
	scalarShare   = 0.08
	quadShare     = 0.16 // lattice quad and accel, interleaved
	greeksShare   = 0.08
	layerShare    = 0.15 // each of serve, http, router, scenario revalue, scenario http
	e2eShare      = 0.30
	spanRingSlots = 1 << 17 // ≥ maxCallSpans × the most rungs a workload runs
)

// ladder is one traced run: the span sink, the result being filled,
// and the per-option costs lower rungs measured for higher rungs to
// subtract.
type ladder struct {
	cfg  runConfig
	tr   *telemetry.Tracer
	proc string
	res  *Result

	scalarUS, quadUS float64
	// topMS is the mean request latency of the highest in-process rung;
	// the end-to-end pass's residual is measured against it.
	topMS float64
	// below is the mean request latency of the rung under the current
	// one, for the request-level self times.
	below float64
}

// runTraced is the per-layer measurement. It replays the workload's
// seeded inputs through each layer's public entry point in turn and
// finishes with an end-to-end pass against the shipped binaries, every
// call recorded as a span.
func runTraced(ctx context.Context, cfg runConfig, env Env) (*Result, error) {
	l := &ladder{
		cfg:  cfg,
		tr:   telemetry.New(spanRingSlots),
		proc: "bench " + cfg.workload.name,
		res:  &Result{Env: env, Metrics: map[string]Metric{}},
	}
	for _, d := range perLayer {
		l.res.set(d.name, 0, 0, "not on this workload's path")
	}
	w := cfg.workload
	rungs := []func(context.Context) error{l.latticeRungs}
	if w.scenario {
		rungs = append(rungs, l.scenarioRungs)
	} else {
		rungs = append(rungs, l.serveAndHTTPRungs)
		if w.fleet {
			rungs = append(rungs, l.routerRung)
		}
	}
	rungs = append(rungs, l.endToEnd)
	for _, rung := range rungs {
		if err := rung(ctx); err != nil {
			return nil, err
		}
	}
	if err := l.writeSpans(); err != nil {
		return nil, err
	}
	return l.res, nil
}

func (l *ladder) budget(share float64) time.Duration {
	return time.Duration(share * float64(l.cfg.dur))
}

// rungSpan is the open span that parents one rung's calls; its name is
// also the trace lane the calls are drawn on.
type rungSpan struct {
	*telemetry.Active
	name string
	// calls counts the rung's calls; the first maxCallSpans become
	// spans, so the fastest rung cannot push the others out of the ring.
	calls *atomic.Int64
}

const maxCallSpans = 1 << 14

func (l *ladder) rung(name string) rungSpan {
	a := l.tr.Begin(name, l.proc, name)
	a.SetAttr("workload", l.cfg.workload.name)
	return rungSpan{a, name, new(atomic.Int64)}
}

// end closes the rung's span, recording how many calls it made.
func (r rungSpan) end() {
	n := r.calls.Load()
	r.SetAttr("calls", n)
	r.SetAttr("call_spans", min(n, maxCallSpans))
	r.End()
}

// emit records one timed call as a child span of the rung.
func (l *ladder) emit(parent rungSpan, name string, req int, start, end time.Time) {
	if parent.calls.Add(1) > maxCallSpans {
		return
	}
	l.tr.Emit(telemetry.Span{
		Name: name, Proc: l.proc, Thread: parent.name,
		Start: start, Dur: end.Sub(start), Clock: telemetry.Wall,
		Req: parent.ID(),
		Attrs: map[string]any{
			"workload": l.cfg.workload.name,
			"request":  req,
			"parent":   parent.ID(),
		},
	})
}

// emitRecords records a driven rung's calls as spans, after timing, so
// recording costs nothing inside the measured interval.
func (l *ladder) emitRecords(parent rungSpan, recs []record) {
	for _, r := range recs {
		l.emit(parent, parent.name+" "+r.req.path, r.req.id, r.start, r.end)
	}
}

// contracts returns the first n contracts the workload's requests
// price, in stream order: the inputs of the lattice and accel rungs.
// Scenario requests contribute their book under every shock, the cross
// product the scenario engine submits to PriceBatch.
func (l *ladder) contracts(n int) ([]option.Option, error) {
	in, err := l.cfg.workload.inputs(l.cfg.seed, l.cfg.sizes)
	if err != nil {
		return nil, err
	}
	var out []option.Option
	add := func(r *request) {
		out = append(out, r.opts...)
		for _, s := range r.shocks {
			for _, pos := range r.book {
				out = append(out, s.Apply(pos.Option))
			}
		}
	}
	if in.next == nil {
		for d := time.Second; len(out) < n; d *= 2 {
			out = out[:0]
			for _, r := range in.schedule(d) {
				add(r)
			}
		}
	} else {
		for len(out) < n {
			add(in.next())
		}
	}
	return out[:n], nil
}

// latticeRungs times the lattice sweeps and the accel accounting over
// the workload's contracts: Engine.Price on a 1-in-32 sample,
// Engine.PriceBatch and the fpga-ivb engine's PriceBatch on the same
// 64-contract batches, interleaved so both see the same machine state,
// and PriceAndGreeksBatch on scenario books.
func (l *ladder) latticeRungs(ctx context.Context) error {
	const batch = 64
	opts, err := l.contracts(1 << 15)
	if err != nil {
		return err
	}
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return err
	}

	sp := l.rung("lattice.scalar")
	var scalar []float64
	deadline := time.Now().Add(l.budget(scalarShare))
	for i := 0; i < len(opts) && time.Now().Before(deadline) && ctx.Err() == nil; i += sampleEvery {
		start := time.Now()
		if _, err := eng.Price(opts[i]); err != nil {
			return fmt.Errorf("lattice rung: %w", err)
		}
		end := time.Now()
		scalar = append(scalar, float64(end.Sub(start))/float64(time.Microsecond))
		l.emit(sp, "Engine.Price", i, start, end)
	}
	sp.end()
	l.scalarUS = mean(scalar)
	l.res.set("lattice.scalar_us_per_option", l.scalarUS, len(scalar), "1-in-32 sample")

	acc, err := fpgaEngine()
	if err != nil {
		return err
	}
	quad, accSp := l.rung("lattice.quad"), l.rung("accel")
	var quadT, accT time.Duration
	var quadAllocs, accAllocs uint64
	var options, batches int
	j0, p0 := acc.ModelledJoules(), acc.PricedOptions()
	deadline = time.Now().Add(l.budget(quadShare))
	for at := 0; at+batch <= len(opts) && time.Now().Before(deadline) && ctx.Err() == nil; at += batch {
		b := opts[at : at+batch]
		d, allocs, start, err := timed(func() error { _, err := eng.PriceBatch(b, 1); return err })
		if err != nil {
			return fmt.Errorf("lattice quad rung: %w", err)
		}
		quadT += d
		quadAllocs += allocs
		l.emit(quad, "Engine.PriceBatch", at/batch, start, start.Add(d))
		d, allocs, start, err = timed(func() error { _, err := acc.PriceBatch(b, 1); return err })
		if err != nil {
			return fmt.Errorf("accel rung: %w", err)
		}
		accT += d
		accAllocs += allocs
		l.emit(accSp, "accel.Engine.PriceBatch", at/batch, start, start.Add(d))
		options += batch
		batches++
	}
	quad.end()
	accSp.end()
	l.quadUS = float64(quadT) / float64(time.Microsecond) / float64(options)
	l.res.set("lattice.quad_us_per_option", l.quadUS, options, "PriceBatch(64, 1 worker)")
	l.res.set("lattice.allocs_per_option", float64(quadAllocs)/float64(options), options, "")
	accUS := float64(accT) / float64(time.Microsecond) / float64(options)
	l.res.set("accel.overhead_us_per_option", accUS-l.quadUS, options, "fpga-ivb PriceBatch minus lattice PriceBatch")
	l.res.set("accel.allocs_per_batch", float64(accAllocs)/float64(batches), batches, "")
	l.res.set("accel.modelled_joules_per_option",
		(acc.ModelledJoules()-j0)/float64(acc.PricedOptions()-p0), int(acc.PricedOptions()-p0), "fpga-ivb")

	if !l.cfg.workload.scenario {
		return nil
	}
	in, err := l.cfg.workload.inputs(l.cfg.seed, l.cfg.sizes)
	if err != nil {
		return err
	}
	gs := l.rung("lattice.greeks")
	var greeksT time.Duration
	positions := 0
	deadline = time.Now().Add(l.budget(greeksShare))
	for time.Now().Before(deadline) && ctx.Err() == nil {
		r := in.next()
		book := make([]option.Option, len(r.book))
		for i, p := range r.book {
			book[i] = p.Option
		}
		d, _, start, err := timed(func() error { _, _, err := eng.PriceAndGreeksBatch(book, 1); return err })
		if err != nil {
			return fmt.Errorf("greeks rung: %w", err)
		}
		greeksT += d
		positions += len(book)
		l.emit(gs, "Engine.PriceAndGreeksBatch", r.id, start, start.Add(d))
	}
	gs.end()
	l.res.set("lattice.greeks_us_per_position", float64(greeksT)/float64(time.Microsecond)/float64(positions), positions, "")
	return nil
}

// fpgaEngine is the accel rung's engine: the paper's FPGA platform.
func fpgaEngine() (*accel.Engine, error) {
	plat, err := accel.Get("fpga-ivb")
	if err != nil {
		return nil, err
	}
	return plat.NewEngine(steps)
}

// timed runs f and reports its wall time, the heap allocations it made
// and when it started.
func timed(f func() error) (time.Duration, uint64, time.Time, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, start, err
}

// serveSender calls PriceOptionsTimed, the serve layer's entry point.
func serveSender(srv *serve.Server) sender {
	return func(ctx context.Context, r *request) result {
		if r.path == "/v1/invalidate" {
			srv.Invalidate(srv.CacheGeneration() + 1)
			return result{}
		}
		rs, phases, err := srv.PriceOptionsTimed(ctx, r.opts)
		res := result{err: err, phases: phases}
		if err == nil {
			res.setPrices(r, rs)
		}
		return res
	}
}

// scrapeHandler reads a handler's /metrics page without a socket.
func scrapeHandler(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.String())
}

// meanLatencyMS is the mean latency of the successful pricing calls.
func meanLatencyMS(recs []record) float64 { return mean(latenciesMS(recs)) }

// serveAndHTTPRungs drives the workload through serve.New (configured
// as pricesrvd's defaults configure it) via PriceOptionsTimed, then
// through the same server's Handler on a loopback listener. The input
// stream continues from one rung to the next, so a cold workload stays
// cold.
func (l *ladder) serveAndHTTPRungs(ctx context.Context) (err error) {
	w := l.cfg.workload
	srv, err := newNode()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeNode(srv)) }()
	in, err := w.inputs(l.cfg.seed, l.cfg.sizes)
	if err != nil {
		return err
	}
	send := serveSender(srv)
	if err := prime(ctx, in.prime, send); err != nil {
		return err
	}

	sp := l.rung("serve")
	m0 := scrapeHandler(srv.Handler())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	recs := drive(ctx, w, in, l.budget(layerShare), send)
	runtime.ReadMemStats(&ms1)
	m1 := scrapeHandler(srv.Handler())
	l.emitRecords(sp, recs)
	sp.end()
	if n, first := failures(recs); n > 0 {
		return fmt.Errorf("serve rung: %d calls failed, first: %w", n, first)
	}

	delta := func(k string) float64 { return m1[k] - m0[k] }
	var lat float64
	var options int
	var ph serve.PhaseBreakdown
	for _, r := range recs {
		lat += float64(r.latency()) / float64(time.Microsecond)
		options += r.res.options
		ph.Add(r.res.phases)
	}
	priced, servedN := delta("binopt_options_priced_total"), delta("binopt_options_served_total")
	share := ratio(delta("binopt_batch_priced_options_total"), priced)
	// What the layer below would spend computing the same answers: the
	// priced share at the cost of the path that priced it.
	computeUS := ratio(priced, servedN) * (share*l.quadUS + (1-share)*l.scalarUS)
	l.res.set("serve.overhead_us_per_option", lat/float64(options)-computeUS, options, "latency per option minus its compute on the lattice rungs")
	perPriced := func(d time.Duration) float64 {
		return ratio(float64(d)/float64(time.Millisecond), float64(ph.Priced))
	}
	l.res.set("serve.batch_wait_ms", perPriced(ph.Batch), ph.Priced, "per priced option")
	l.res.set("serve.queue_wait_ms", perPriced(ph.Queue), ph.Priced, "per priced option")
	l.res.set("serve.compute_ms", perPriced(ph.Compute), ph.Priced, "per priced option")
	l.res.set("serve.readback_ms", perPriced(ph.Readback), ph.Priced, "per priced option")
	l.res.set("serve.batch_path_share", share, int(priced), "batch-priced / priced")
	l.res.set("serve.batch_size_mean", ratio(delta("binopt_batch_size_sum"), delta("binopt_batch_size_count")), int(delta("binopt_batch_size_count")), "")
	l.res.set("serve.cache_hit_ratio", ratio(delta("binopt_cache_hits_total"), servedN), int(servedN), "")
	l.res.set("serve.rejected", delta("binopt_rejected_total"), len(recs), "")
	l.res.set("serve.retries", delta("binopt_retries_total"), len(recs), "")
	l.res.set("serve.allocs_per_option", float64(ms1.Mallocs-ms0.Mallocs)/float64(options), options, "process-wide")
	l.below = meanLatencyMS(recs)

	base, closeHTTP, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer closeHTTP()
	client := newHTTPClient(conns())
	defer client.CloseIdleConnections()
	hs := l.rung("http")
	recs = drive(ctx, w, in, l.budget(layerShare), httpSender(client, base))
	l.emitRecords(hs, recs)
	hs.end()
	if n, first := failures(recs); n > 0 {
		return fmt.Errorf("http rung: %d calls failed, first: %w", n, first)
	}
	var reqB, respB []float64
	for _, r := range answered(recs) {
		reqB = append(reqB, float64(r.res.reqBytes))
		respB = append(respB, float64(r.res.respBytes))
	}
	httpMS := meanLatencyMS(recs)
	l.res.set("http.overhead_us_per_request", (httpMS-l.below)*1000, len(recs), "http rung minus serve rung, mean request latency")
	l.res.set("http.request_bytes", mean(reqB), len(reqB), "mean")
	l.res.set("http.response_bytes", mean(respB), len(respB), "mean")
	l.below, l.topMS = httpMS, httpMS
	return nil
}

// routerRung drives the workload through NewLocalFleet(2) behind
// NewRouter(...).Handler(), configured as pricefleet's defaults.
func (l *ladder) routerRung(ctx context.Context) (err error) {
	w := l.cfg.workload
	tgt, err := inprocFleet()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tgt.stop()) }()
	if err := waitReady(ctx, tgt.base, fleetReady(fleetNodes), nil); err != nil {
		return err
	}
	in, err := w.inputs(l.cfg.seed, l.cfg.sizes)
	if err != nil {
		return err
	}
	client := newHTTPClient(conns())
	defer client.CloseIdleConnections()
	send := httpSender(client, tgt.base)
	if err := prime(ctx, in.prime, send); err != nil {
		return err
	}
	m0, err := scrapeMetrics(ctx, client, tgt.base)
	if err != nil {
		return err
	}
	sp := l.rung("router")
	recs := drive(ctx, w, in, l.budget(layerShare), send)
	l.emitRecords(sp, recs)
	sp.end()
	m1, err := scrapeMetrics(ctx, client, tgt.base)
	if err != nil {
		return err
	}
	if n, first := failures(recs); n > 0 {
		return fmt.Errorf("router rung: %d calls failed, first: %w", n, first)
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }
	var forwards float64
	for k := range m1 {
		if strings.HasPrefix(k, "binopt_node_forwards_total{") {
			forwards += delta(k)
		}
	}
	routerMS := meanLatencyMS(recs)
	l.res.set("router.overhead_us_per_request", (routerMS-l.below)*1000, len(recs), "router rung minus http rung, mean request latency")
	l.res.set("router.forwards_per_request", ratio(forwards, delta("binopt_router_requests_total")), len(recs), "")
	l.res.set("router.failovers", delta("binopt_router_failovers_total"), len(recs), "")
	l.res.set("router.hedges", delta("binopt_router_hedges_total"), len(recs), "")
	l.topMS = routerMS
	return nil
}

// scenarioRungs times scenario.New(accel engine, 0).Revalue over the
// workload's requests, then the same stream through /v1/scenarios on a
// serve.New server's Handler.
func (l *ladder) scenarioRungs(ctx context.Context) (err error) {
	w := l.cfg.workload
	acc, err := fpgaEngine()
	if err != nil {
		return err
	}
	eng := scenario.New(acc, 0)
	in, err := w.inputs(l.cfg.seed, l.cfg.sizes)
	if err != nil {
		return err
	}
	sp := l.rung("scenario")
	var revalue []float64
	var evals int64
	deadline := time.Now().Add(l.budget(layerShare))
	for time.Now().Before(deadline) && ctx.Err() == nil {
		r := in.next()
		start := time.Now()
		rep, err := eng.Revalue(scenario.Request{Book: r.book, Shocks: r.shocks, Quantiles: r.quantiles})
		end := time.Now()
		if err != nil {
			return fmt.Errorf("scenario rung: %w", err)
		}
		revalue = append(revalue, float64(end.Sub(start))/float64(time.Millisecond))
		evals += rep.Evaluations
		l.emit(sp, "scenario.Engine.Revalue", r.id, start, end)
	}
	sp.end()
	l.res.set("scenario.revalue_ms", mean(revalue), len(revalue), "mean per request")
	l.res.set("scenario.evals_per_request", float64(evals)/float64(len(revalue)), len(revalue), "")

	srv, err := newNode()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, closeNode(srv)) }()
	base, closeHTTP, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer closeHTTP()
	client := newHTTPClient(conns())
	defer client.CloseIdleConnections()
	hs := l.rung("scenario.http")
	recs := drive(ctx, w, in, l.budget(layerShare), httpSender(client, base))
	l.emitRecords(hs, recs)
	hs.end()
	if n, first := failures(recs); n > 0 {
		return fmt.Errorf("scenario http rung: %d calls failed, first: %w", n, first)
	}
	// The server's own Server-Timing says how long it spent revaluing;
	// the rest of each request's latency is HTTP and JSON.
	var overhead []float64
	for _, r := range recs {
		server := r.res.timing["expand"] + r.res.timing["price"] + r.res.timing["aggregate"]
		overhead = append(overhead, float64(r.latency())/float64(time.Millisecond)-server)
	}
	l.res.set("scenario.http_overhead_ms", mean(overhead), len(overhead), "request latency minus Server-Timing expand+price+aggregate")
	l.topMS = meanLatencyMS(recs)
	return nil
}

// endToEnd is the ladder's top: the workload against the shipped
// binaries, with a client-side span on every even-numbered request. The
// odd ones run unspanned, so the two halves measure what tracing costs
// under identical conditions.
func (l *ladder) endToEnd(ctx context.Context) error {
	cfg := l.cfg
	cfg.boots = 1
	cfg.dur = l.budget(e2eShare)
	sp := l.rung("e2e")
	wrap := func(send sender) sender {
		return func(ctx context.Context, r *request) result {
			if r.id%2 != 0 {
				return send(ctx, r)
			}
			start := time.Now()
			res := send(ctx, r)
			l.emit(sp, sp.name+" "+r.path, r.id, start, time.Now())
			return res
		}
	}
	run, err := runE2E(ctx, cfg, wrap)
	sp.end()
	if err != nil {
		return err
	}
	l.res.Env.Servers = append(l.res.Env.Servers, run.argv)
	if err := l.res.settle(run); err != nil {
		return err
	}
	var late []float64
	for _, r := range run.recs {
		late = append(late, float64(r.lateness())/float64(time.Millisecond))
	}
	var spanned, plain []float64
	for _, r := range answered(run.recs) {
		ms := float64(r.latency()) / float64(time.Millisecond)
		if r.req.id%2 == 0 {
			spanned = append(spanned, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	e2eMS := meanLatencyMS(run.recs)
	l.res.set("ladder.residual_pct", 100*(e2eMS-l.topMS)/e2eMS, len(run.recs), "end-to-end minus top in-process rung, mean request latency")
	late = sortedCopy(late)
	l.res.set("loadgen.send_lag_p99_ms", percentile(late, 99), len(late), "closed loops send on reply: 0")
	l.res.set("loadgen.backlog_max", float64(maxBacklog(run.recs)), len(run.recs), "")
	l.res.set("bench.trace_overhead_pct", 100*(mean(spanned)-mean(plain))/mean(plain), len(spanned)+len(plain), "spanned vs unspanned requests, same run")
	return nil
}

// writeSpans writes every retained span as Chrome trace-event JSON.
func (l *ladder) writeSpans() error {
	if d := l.tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "bench: span ring kept the last %d spans; %d older ones were dropped\n", l.tr.Len(), d)
	}
	b, err := telemetry.Chrome(l.tr.Snapshot())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.cfg.spans), 0o755); err != nil {
		return err
	}
	return os.WriteFile(l.cfg.spans, b, 0o644)
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
