package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/obslog"
	"binopt/internal/serve"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

// Node names one fleet member and where to reach it.
type Node struct {
	// Name is the member's ring identity. Placement hashes the name,
	// not the address, so a node that moves hosts keeps its segment.
	Name string
	// BaseURL is the member's serving root, e.g. "http://10.0.0.7:8080".
	BaseURL string
}

// Config parameterises a Router. The zero value of every optional field
// has a sensible default.
type Config struct {
	// Nodes is the initial membership. At least one required.
	Nodes []Node
	// Steps is the lattice depth the member nodes price at; it is baked
	// into the placement keys so routing identity equals cache identity.
	Steps int
	// VNodes is the virtual-node count per member (default 128).
	VNodes int
	// Seed seeds ring placement, so tests replay exact layouts
	// (default 1).
	Seed uint64
	// Hedge, when positive, re-sends a sub-request (a price sub-batch
	// or a scenario group) to the owner's ring successor if the owner
	// has not answered within this delay; the first response wins.
	// Answers are bit-identical across nodes, so a hedged duplicate is
	// semantically invisible — it only cuts the tail. Zero disables
	// hedging.
	Hedge time.Duration
	// MaxAttempts bounds how many distinct nodes a sub-batch may be
	// tried on before the client sees an error (default 3, clamped to
	// the fleet size).
	MaxAttempts int
	// Heartbeat is the membership health-poll interval (default 250ms;
	// negative disables polling — forward outcomes still feed the
	// breakers).
	Heartbeat time.Duration
	// HeartbeatTimeout bounds one health poll (default 1s).
	HeartbeatTimeout time.Duration
	// Breaker parameterises the per-node circuit breakers; zero fields
	// take the serve.BreakerConfig defaults — the same machinery that
	// guards the in-process shards guards the remote nodes.
	Breaker serve.BreakerConfig
	// Tracer, when set, records route/forward/node-compute/merge spans
	// and enables /debug/trace on the router — which also pulls every
	// member's span ring and serves the merged, clock-aligned fleet
	// trace.
	Tracer *telemetry.Tracer
	// SLO, when set, runs a burn-rate monitor over the router's own
	// request outcomes (served on /debug/slo, folded into /healthz) —
	// the fleet-level view of what clients actually experienced,
	// failovers and hedges included.
	SLO *slo.Options
	// Logger receives structured request and routing logs; nil logs
	// nothing.
	Logger *slog.Logger
	// Transport, when set, overrides every member's HTTP transport
	// (tests inject failing or instrumented transports). When nil each
	// member gets its own pooled transport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 1024
	}
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxAttempts > len(c.Nodes) {
		c.MaxAttempts = len(c.Nodes)
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	return c
}

// member is one node as the router sees it: a connection pool, a
// circuit breaker fed by heartbeats and forward outcomes, and counters.
type member struct {
	name    string
	base    string
	client  *http.Client
	breaker *serve.Breaker

	up       atomic.Bool  // last heartbeat verdict
	forwards atomic.Int64 // sub-batches sent here
	errs     atomic.Int64 // sub-batches that failed here
	hedgeWin atomic.Int64 // hedged duplicates this node won

	// clockOffset is the node's wall clock minus the router's, in
	// nanoseconds: the heartbeat reads the node's healthz now_unix_nano
	// against the poll's RTT midpoint. The fleet trace aggregator
	// subtracts it so spans from skewed machines land on the router's
	// timeline. Zero until the first successful measurement.
	clockOffset atomic.Int64
}

// Router is the fabric front-end: it speaks the node's own /v1/price
// API to clients, places contracts on members via the consistent-hash
// ring, and hides member failures behind hedging and successor
// failover. Construct with NewRouter, serve via Handler, stop with
// Close.
type Router struct {
	cfg     Config
	ring    *Ring
	members map[string]*member
	metrics *routerMetrics
	tracer  *telemetry.Tracer
	fleetTr *fleetTrace
	slomon  *slo.Monitor
	logger  *slog.Logger

	// gen is the router's view of the fleet cache generation, advanced
	// by POST /v1/invalidate at the router.
	gen atomic.Uint64

	// lifetime is cancelled by Close; background work (heartbeats) that
	// cannot inherit a request context derives from it, so Close never
	// waits out a probe timeout.
	lifetime context.Context
	cancel   context.CancelFunc

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds a router over the given membership and starts the
// heartbeat loop.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: at least one node required")
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Seed, cfg.VNodes),
		members: make(map[string]*member, len(cfg.Nodes)),
		metrics: newRouterMetrics(),
		tracer:  cfg.Tracer,
		logger:  obslog.Or(cfg.Logger),
		stop:    make(chan struct{}),
	}
	//binopt:ignore ctxflow router lifetime root, cancelled in Close
	rt.lifetime, rt.cancel = context.WithCancel(context.Background())
	if cfg.Tracer.Enabled() {
		rt.fleetTr = newFleetTrace(cfg.Tracer.Capacity())
	}
	if cfg.SLO != nil {
		rt.slomon = slo.New(*cfg.SLO)
	}
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.BaseURL == "" {
			return nil, fmt.Errorf("cluster: node needs name and base URL, got %+v", n)
		}
		if _, dup := rt.members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		transport := cfg.Transport
		if transport == nil {
			transport = &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			}
		}
		m := &member{
			name:    n.Name,
			base:    n.BaseURL,
			client:  &http.Client{Transport: transport},
			breaker: serve.NewBreaker(cfg.Breaker),
		}
		m.up.Store(true) // optimistic until the first heartbeat says otherwise
		rt.members[n.Name] = m
		rt.ring.Add(n.Name)
	}
	if cfg.Heartbeat > 0 {
		rt.wg.Add(1)
		go rt.heartbeatLoop()
	}
	return rt, nil
}

// Close stops the heartbeat loop, cancelling any probe already in
// flight — without the lifetime cancel, Close blocks for up to
// HeartbeatTimeout behind one wedged member. In-flight requests
// complete on their own contexts.
func (rt *Router) Close() {
	rt.cancel()
	close(rt.stop)
	rt.wg.Wait()
}

// Ring exposes the placement ring (read-only use: ownership gauges,
// tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// heartbeatLoop polls every member's /healthz on the configured
// interval. Outcomes feed the member's circuit breaker — the same
// rolling-window state machine the serving pool runs per shard — so a
// node that stops answering is routed around within one breaker window
// even with no traffic in flight.
func (rt *Router) heartbeatLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.pollOnce()
		}
	}
}

// pollOnce health-checks every member concurrently.
func (rt *Router) pollOnce() {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(rt.lifetime, rt.cfg.HeartbeatTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.base+"/healthz", nil)
			if err != nil {
				return
			}
			t0 := time.Now()
			resp, err := m.client.Do(req)
			if err != nil {
				m.up.Store(false)
				m.breaker.OnFailure()
				return
			}
			var health struct {
				NowUnixNano int64 `json:"now_unix_nano"`
			}
			decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&health)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if decErr == nil && health.NowUnixNano != 0 {
				// NTP-style midpoint estimate: the node stamped its clock
				// somewhere inside our RTT window; assume the middle.
				// offset = node clock − router clock, subtracted later
				// when merging the node's spans onto our timeline.
				rtt := time.Since(t0)
				m.clockOffset.Store(health.NowUnixNano - t0.Add(rtt/2).UnixNano())
			}
			// Draining (503) nodes are down for placement purposes;
			// degraded (200) nodes still price correctly.
			ok := resp.StatusCode == http.StatusOK
			m.up.Store(ok)
			if ok {
				m.breaker.OnSuccess()
			} else {
				m.breaker.OnFailure()
			}
		}(m)
	}
	wg.Wait()
}

// pick returns the member that should price key given the nodes already
// excluded this request: the first breaker-eligible, up member on the
// key's successor chain. If every non-excluded member looks unhealthy,
// the first non-excluded one is returned anyway — a fully dark fleet
// should still try. Returns nil when every member is excluded.
func (rt *Router) pick(key string, excluded map[string]bool) *member {
	chain := rt.ring.Successors(key, rt.ring.Len())
	var fallback *member
	for _, name := range chain {
		if excluded[name] {
			continue
		}
		m := rt.members[name]
		if fallback == nil {
			fallback = m
		}
		if m.up.Load() && m.breaker.Eligible() {
			return m
		}
	}
	return fallback
}

// backupFor returns the first healthy member on key's successor chain
// other than primary and the excluded set — the hedge target.
func (rt *Router) backupFor(key string, primary *member, excluded map[string]bool) *member {
	for _, name := range rt.ring.Successors(key, rt.ring.Len()) {
		if name == primary.name || excluded[name] {
			continue
		}
		m := rt.members[name]
		if m.up.Load() && m.breaker.Eligible() {
			return m
		}
	}
	return nil
}

// fwdResult is one sub-request's forward outcome; T is the endpoint's
// decoded reply (serve.PriceResponse or serve.ScenarioResponse).
type fwdResult[T any] struct {
	resp    T
	phases  serve.PhaseBreakdown
	m       *member
	status  int // HTTP status, 0 on transport error
	hedged  bool
	elapsed time.Duration
	err     error
}

// retryable reports whether failover to another node can help. Only a
// 4xx other than 429 is permanent — the request's own fault, which would
// fail identically everywhere; transport errors, 5xx, 429 saturation and
// a 200 whose body is undecodable or short are all worth a successor.
func (r fwdResult[T]) retryable() bool {
	return r.status < 400 || r.status >= 500 || r.status == http.StatusTooManyRequests
}

// forward posts one sub-request to one member and decodes the reply,
// which must answer want items by count. traceparent, when non-empty,
// rides the request so the node parents its spans under the routed
// request's distributed trace. Outcomes feed the member's breaker:
// transport errors, 5xx and undecodable or short replies are failures,
// 200 is a success, and any other status is neither — 429 is load, not
// ill-health, and other 4xx are the request's own fault.
func forward[T any](ctx context.Context, m *member, path string, body []byte, count func(*T) int, want int, traceparent string) fwdResult[T] {
	t0 := time.Now()
	m.forwards.Add(1)
	out := fwdResult[T]{m: m}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.base+path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := m.client.Do(req)
	out.elapsed = time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancellation (a hedge rival won, or the client
			// left) — not node ill-health; the breaker stays unfed.
			out.err = ctx.Err()
			return out
		}
		m.errs.Add(1)
		m.breaker.OnFailure()
		out.err = fmt.Errorf("node %s: %w", m.name, err)
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		m.errs.Add(1)
		if resp.StatusCode >= 500 {
			m.breaker.OnFailure()
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.err = fmt.Errorf("node %s: HTTP %d: %s", m.name, resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	if err := json.NewDecoder(resp.Body).Decode(&out.resp); err != nil {
		out.err = fmt.Errorf("node %s: decoding response: %w", m.name, err)
	} else if got := count(&out.resp); got != want {
		out.err = fmt.Errorf("node %s: %d results for %d requested", m.name, got, want)
	}
	if out.err != nil {
		m.errs.Add(1)
		m.breaker.OnFailure()
		return out
	}
	out.elapsed = time.Since(t0)
	if st := resp.Header.Get("Server-Timing"); st != "" {
		if bd, err := serve.ParseServerTiming(st); err == nil {
			out.phases = bd
		}
	}
	m.breaker.OnSuccess()
	return out
}

// forwardHedged forwards one sub-request with optional hedging: the
// primary gets the request immediately; if it has neither answered nor
// failed within the hedge delay, the backup gets a duplicate and the
// first success wins. A primary that fails fast and retryably promotes
// the backup immediately — no point waiting out a delay the failure
// already paid. A permanent failure is final: a duplicate would fail
// identically.
func forwardHedged[T any](ctx context.Context, rt *Router, primary, backup *member, path string, body []byte, count func(*T) int, want int, traceparent string) fwdResult[T] {
	if rt.cfg.Hedge <= 0 || backup == nil {
		return forward(ctx, primary, path, body, count, want, traceparent)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's request is torn down with the call
	ch := make(chan fwdResult[T], 2)
	launch := func(m *member, hedged bool) {
		go func() {
			r := forward(cctx, m, path, body, count, want, traceparent)
			r.hedged = hedged
			ch <- r
		}()
	}
	launch(primary, false)
	timer := time.NewTimer(rt.cfg.Hedge)
	defer timer.Stop()
	launched, done := 1, 0
	var lastErr fwdResult[T]
	for {
		select {
		case r := <-ch:
			done++
			if r.err == nil {
				if r.hedged {
					rt.metrics.hedgeWins.Add(1)
					r.m.hedgeWin.Add(1)
				}
				return r
			}
			if !r.retryable() {
				return r
			}
			lastErr = r
			if launched < 2 {
				// Fast failure: promote the hedge now.
				rt.metrics.hedges.Add(1)
				launch(backup, true)
				launched++
			} else if done == launched {
				return lastErr
			}
		case <-timer.C:
			if launched < 2 {
				rt.metrics.hedges.Add(1)
				launch(backup, true)
				launched++
			}
		}
	}
}

// endpoint is what one routed endpoint supplies to the shared fan-out
// loop; placement, hedging, failover, breaker booking and forward spans
// are common to both.
type endpoint[T any] struct {
	path string
	item string   // one item's noun in errors and spans: "contract", "scenario"
	keys []string // ring placement key per item, in request order
	// build marshals the sub-request for the items idx; it runs on the
	// group's forward goroutine. owner is true for the group holding
	// item 0 — the lowest remaining index until that group succeeds — so
	// exactly one merged reply per request comes from an owner group.
	build func(idx []int, owner bool) ([]byte, error)
	// count reports how many items a decoded reply answers.
	count func(*T) int
	// merge folds one successful reply into the response; it runs under
	// the loop's mutex.
	merge func(idx []int, owner bool, r fwdResult[T])
	// failovers counts items re-placed after a node failure; shards,
	// when set, counts sub-requests forwarded.
	failovers, shards *atomic.Int64
}

// fanOut answers one client request across the fleet: items are grouped
// by the ring owner of their placement key, groups forward concurrently
// (hedged when Config.Hedge is set), retryably failed groups re-place
// onto successors with the failed node excluded, and the endpoint merges
// each reply back in request order. Answers are bit-identical on every
// node, so failover and hedging never change an answer — only who
// computed it. A permanent failure (a 4xx other than 429) would fail
// identically on every successor, so it ends the request at once with
// the node's status.
//
// e carries the request's distributed trace ID ("" untraced); each
// forward injects a traceparent naming its own pre-allocated forward
// span as the parent, so node spans nest under the exact forward that
// carried them. When the router has no span IDs of its own (tracer
// disabled, pure proxy) the caller's header is forwarded verbatim.
func fanOut[T any](ctx context.Context, e *edge, ep endpoint[T]) (int, error) {
	rt := e.rt
	type group struct {
		m, backup *member
		idx       []int
		owner     bool
	}
	remaining := make([]int, len(ep.keys))
	for i := range remaining {
		remaining[i] = i
	}
	excluded := make(map[string]bool)
	var lastErr error
	lastStatus := http.StatusBadGateway

	for attempt := 0; attempt < rt.cfg.MaxAttempts && len(remaining) > 0; attempt++ {
		if attempt > 0 {
			ep.failovers.Add(int64(len(remaining)))
		}
		// Place the remaining items while the loop is still
		// single-threaded: the excluded set mutates under the forward
		// goroutines' mutex and must not be read concurrently.
		byMember := make(map[*member][]int)
		for _, i := range remaining {
			m := rt.pick(ep.keys[i], excluded)
			if m == nil {
				return http.StatusBadGateway,
					fmt.Errorf("no nodes left for %s %d after %d exclusions", ep.item, i, len(excluded))
			}
			byMember[m] = append(byMember[m], i)
		}
		groups := make([]group, 0, len(byMember))
		for m, idx := range byMember {
			// remaining is sorted, so idx[0] == 0 marks the group holding
			// item 0, which stays remaining until its group succeeds.
			groups = append(groups, group{m, rt.backupFor(ep.keys[idx[0]], m, excluded), idx, idx[0] == 0})
		}

		var (
			mu         sync.Mutex
			wg         sync.WaitGroup
			failed     []int
			permErr    error
			permStatus int
		)
		for _, g := range groups {
			wg.Add(1)
			go func(g group) {
				defer wg.Done()
				body, err := ep.build(g.idx, g.owner)
				if err != nil {
					mu.Lock()
					permStatus, permErr = http.StatusInternalServerError, err
					mu.Unlock()
					return
				}
				if ep.shards != nil {
					ep.shards.Add(1)
				}
				var fwdID uint64
				tp := e.fallbackTP
				if e.trace != "" {
					if fwdID = rt.tracer.NextID(); fwdID != 0 {
						tp = telemetry.FormatTraceParent(e.trace, fwdID)
					}
				}
				t0 := time.Now()
				r := forwardHedged(ctx, rt, g.m, g.backup, ep.path, body, ep.count, len(g.idx), tp)
				emitForwardSpans(e, fwdID, ep, g.m, r, t0, len(g.idx), attempt)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case r.err == nil:
					ep.merge(g.idx, g.owner, r)
				case !r.retryable():
					// Permanent: surface the node's verdict as ours.
					permStatus, permErr = r.status, r.err
				default:
					lastErr = r.err
					if r.status == http.StatusTooManyRequests {
						lastStatus = http.StatusTooManyRequests
					}
					excluded[r.m.name] = true
					failed = append(failed, g.idx...)
				}
			}(g)
		}
		wg.Wait()
		if permErr != nil {
			return permStatus, permErr
		}
		slices.Sort(failed)
		remaining = failed
	}

	if len(remaining) > 0 {
		rt.metrics.routeErrors.Add(1)
		if lastErr == nil {
			lastErr = fmt.Errorf("cluster: %d %ss unplaced", len(remaining), ep.item)
		}
		return lastStatus, lastErr
	}
	return http.StatusOK, nil
}

// emitForwardSpans records one group forward and, when the node
// reported phase timing, a node-compute span re-anchored on the router
// clock — so a Chrome trace of the router shows
// route → forward → node-compute → merge. The forward span reuses the
// pre-allocated ID the traceparent named, so the node's spans really do
// hang off the span that carried them; the fleet aggregator then pulls
// the node's own rings in under the same trace ID.
func emitForwardSpans[T any](e *edge, fwdID uint64, ep endpoint[T], m *member, r fwdResult[T], start time.Time, n, attempt int) {
	rt := e.rt
	if !rt.tracer.Enabled() {
		return
	}
	name := "forward"
	if r.err != nil {
		name = "forward-error"
	}
	reqID := e.span.ID()
	rt.tracer.Emit(telemetry.Span{
		ID: fwdID, Req: reqID, Trace: e.trace,
		Name: name, Proc: "router", Thread: "node " + m.name,
		Start: start, Dur: r.elapsed, Clock: telemetry.Wall,
		Attrs: map[string]any{
			"node":        m.name,
			"path":        ep.path,
			ep.item + "s": n,
			"attempt":     attempt + 1,
			"hedged":      r.hedged,
			"status":      r.status,
		},
	})
	if r.err == nil && r.phases.Compute > 0 {
		rt.tracer.Emit(telemetry.Span{
			Req: reqID, Trace: e.trace,
			Name: "node-compute", Proc: "router", Thread: "node " + m.name,
			Start: start.Add(r.elapsed - r.phases.Compute - r.phases.Readback),
			Dur:   r.phases.Compute, Clock: telemetry.Wall,
			Attrs: map[string]any{"node": m.name, "priced": r.phases.Priced},
		})
	}
}

// routeBatch prices one client batch across the fleet: contracts place
// by their canonical cache key, so routing identity equals node cache
// identity, and results merge back in input order with the nodes'
// phase breakdowns summed.
func (rt *Router) routeBatch(ctx context.Context, e *edge, contracts []serve.Contract) ([]serve.Result, serve.PhaseBreakdown, int, error) {
	var phases serve.PhaseBreakdown
	keys := make([]string, len(contracts))
	for i, c := range contracts {
		o, err := c.ToOption()
		if err != nil {
			return nil, phases, http.StatusBadRequest, fmt.Errorf("contract %d: %v", i, err)
		}
		keys[i] = serve.KeyFor(o, rt.cfg.Steps).String()
	}
	results := make([]serve.Result, len(contracts))
	status, err := fanOut(ctx, e, endpoint[serve.PriceResponse]{
		path: "/v1/price", item: "contract", keys: keys,
		build: func(idx []int, _ bool) ([]byte, error) {
			sub := serve.PriceRequest{Contracts: make([]serve.Contract, len(idx))}
			for j, i := range idx {
				sub.Contracts[j] = contracts[i]
			}
			return json.Marshal(sub)
		},
		count: func(r *serve.PriceResponse) int { return len(r.Results) },
		merge: func(idx []int, _ bool, r fwdResult[serve.PriceResponse]) {
			for j, i := range idx {
				results[i] = r.resp.Results[j]
			}
			phases.Add(r.phases)
		},
		failovers: &rt.metrics.failovers,
	})
	if err != nil {
		return nil, phases, status, err
	}
	return results, phases, status, nil
}

// Handler returns the router's HTTP API — a superset of the node API,
// so clients (and loadgen) cannot tell a router from a node:
//
//	POST /v1/price       route a batch across the fleet
//	POST /v1/scenarios   shard a revaluation's scenario axis across
//	                     the fleet and merge in order
//	POST /v1/invalidate  bump the fleet cache generation (broadcast)
//	GET  /healthz        fleet membership, ring and breaker view
//	GET  /metrics        fleet + per-node + router metrics
//	GET  /debug/slo      router burn-rate monitor state (JSON)
//	GET  /debug/trace    merged fleet trace: router spans plus every
//	                     member's span ring, clock-aligned, as Chrome
//	                     trace JSON
//	GET  /debug/spans    the router's own incremental span export
//	                     (?cursor=N), for a router-of-routers
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/price", rt.handlePrice)
	mux.HandleFunc("/v1/scenarios", rt.handleScenarios)
	mux.HandleFunc("/v1/invalidate", rt.handleInvalidate)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/debug/slo", rt.handleSLO)
	if rt.tracer.Enabled() {
		mux.HandleFunc("/debug/trace", rt.handleTrace)
		mux.HandleFunc("/debug/spans", rt.handleSpans)
	}
	return mux
}

// handleSLO serves the router's burn-rate monitor state; a router with
// no monitor serves the healthy zero report.
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.slomon.Report())
}

// handleSpans serves the router's own span ring in incremental wire
// form, the same page the member nodes serve — so a router can itself
// be a member of a larger fabric.
func (rt *Router) handleSpans(w http.ResponseWriter, r *http.Request) {
	var cursor uint64
	if q := r.URL.Query().Get("cursor"); q != "" {
		var err error
		if cursor, err = strconv.ParseUint(q, 10, 64); err != nil {
			rt.writeError(w, http.StatusBadRequest, "bad cursor %q: %v", q, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, rt.tracer.ExportSince(cursor, "router"))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// edge is one routed request at the fleet edge: what both routed
// endpoints share before and after the fan-out.
type edge struct {
	rt      *Router
	w       http.ResponseWriter
	started time.Time
	// batch selects the SLO class: batch-class requests count toward
	// availability but are exempt from the interactive latency budget.
	batch bool
	// trace is the request's distributed trace ID ("" untraced);
	// fallbackTP is the caller's traceparent, forwarded verbatim when
	// the router mints no span IDs of its own.
	trace, fallbackTP string
	span              *telemetry.Active
	log               *slog.Logger
	body              []byte
}

// begin runs the prologue both routed endpoints share: POST only, count
// the request on reqs, adopt an upstream traceparent or mint a trace,
// open the request span and read the bounded body. When it returns
// false it has already answered the client; otherwise the caller ends
// e.span.
func (rt *Router) begin(w http.ResponseWriter, r *http.Request, reqs *atomic.Int64, batch bool) (*edge, bool) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	reqs.Add(1)
	e := &edge{rt: rt, w: w, started: time.Now(), batch: batch}

	// Distributed trace identity, mirroring the node handler: adopt an
	// upstream traceparent when one arrives, mint otherwise. The
	// original header is kept as the pure-proxy fallback — a router
	// without its own tracer still propagates the caller's identity
	// verbatim to the nodes.
	trace, parent, fromRemote := telemetry.ParseTraceParent(r.Header.Get("traceparent"))
	if !fromRemote && rt.tracer.Enabled() {
		trace = telemetry.NewTraceID()
	}
	e.trace = trace
	if fromRemote {
		e.fallbackTP = r.Header.Get("traceparent")
	}
	e.span = rt.tracer.Begin("POST "+r.URL.Path, "router", "requests")
	e.span.SetReq(e.span.ID())
	e.span.SetTrace(trace)
	if fromRemote {
		e.span.SetAttr("parent_span", fmt.Sprintf("%016x", parent))
	}
	e.log = obslog.WithTrace(rt.logger, trace, e.span.ID())

	body, status, err := serve.ReadBody(w, r)
	if err != nil {
		e.span.End()
		rt.writeError(w, status, "reading body: %v", err)
		return nil, false
	}
	e.body = body
	return e, true
}

// observe books the request's outcome on the router's SLO monitor: what
// clients experienced at the fleet edge, hedges and failovers already
// absorbed. Client faults (4xx) and backpressure (429) are never booked,
// so they spend no error budget.
func (e *edge) observe(failed bool) {
	if e.batch {
		e.rt.slomon.ObserveBatch(failed)
		return
	}
	e.rt.slomon.Observe(time.Since(e.started), failed)
}

// fail answers a request the fan-out could not serve: 429 carries
// Retry-After, and a server-side failure (≥500) spends error budget and
// logs a warning carrying attrs.
func (e *edge) fail(status int, err error, attrs ...any) {
	if status == http.StatusTooManyRequests {
		e.w.Header().Set("Retry-After", "1")
	}
	if status >= 500 {
		e.observe(true)
		e.log.Warn("route failed", append(attrs, "status", status, "error", err.Error())...)
	}
	e.rt.writeError(e.w, status, "%v", err)
}

// reply books a success and answers v, naming the request span as the
// response's traceparent.
func (e *edge) reply(v any) {
	e.observe(false)
	if e.trace != "" && e.span.ID() != 0 {
		e.w.Header().Set("traceparent", telemetry.FormatTraceParent(e.trace, e.span.ID()))
	}
	writeJSON(e.w, http.StatusOK, v)
}

func (rt *Router) handlePrice(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.begin(w, r, &rt.metrics.requests, false)
	if !ok {
		return
	}
	defer e.span.End()
	req, err := serve.ParsePriceRequest(e.body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e.span.SetAttr("contracts", len(req.Contracts))

	results, phases, status, err := rt.routeBatch(r.Context(), e, req.Contracts)
	if err != nil {
		e.fail(status, err, "path", r.URL.Path, "contracts", len(req.Contracts))
		return
	}

	mergeStart := time.Now()
	rt.metrics.options.Add(int64(len(results)))
	e.span.SetAttr("joules", phases.Joules)
	w.Header().Set("Server-Timing", phases.ServerTiming())
	e.reply(serve.PriceResponse{Steps: rt.cfg.Steps, Results: results})
	if rt.tracer.Enabled() {
		rt.tracer.Emit(telemetry.Span{
			Req: e.span.ID(), Trace: e.trace, Name: "merge", Proc: "router", Thread: "requests",
			Start: mergeStart, Dur: time.Since(mergeStart), Clock: telemetry.Wall,
			Attrs: map[string]any{"contracts": len(results)},
		})
	}
	e.log.Debug("batch routed",
		"contracts", len(req.Contracts), "priced", phases.Priced,
		"joules", phases.Joules, "latency", time.Since(e.started).Seconds())
}

// handleInvalidate bumps the fleet cache generation and broadcasts the
// bump to every member concurrently. Member nodes running under a
// gossiper re-forward it, so even members the router could not reach
// directly converge via their peers.
func (rt *Router) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, status, err := serve.ReadInvalidate(w, r)
	if err != nil {
		rt.writeError(w, status, "%v", err)
		return
	}
	gen := req.Generation
	for {
		cur := rt.gen.Load()
		if gen == 0 {
			gen = cur + 1
		}
		if gen <= cur {
			writeJSON(w, http.StatusOK, serve.InvalidateResponse{Applied: false, Generation: cur})
			return
		}
		if rt.gen.CompareAndSwap(cur, gen) {
			break
		}
	}
	rt.metrics.invalidations.Add(1)
	origin := req.Origin
	if origin == "" {
		origin = "router"
	}
	reached := rt.broadcastInvalidate(r.Context(), gen, origin)
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": true, "generation": gen, "nodes_reached": reached,
	})
}

// broadcastInvalidate pushes a generation bump to every member,
// returning how many acknowledged.
func (rt *Router) broadcastInvalidate(ctx context.Context, gen uint64, origin string) int {
	body, _ := json.Marshal(serve.InvalidateRequest{Generation: gen, Origin: origin})
	var wg sync.WaitGroup
	var reached atomic.Int64
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodPost, m.base+"/v1/invalidate", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := m.client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				reached.Add(1)
			}
		}(m)
	}
	wg.Wait()
	return int(reached.Load())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type nodeHealth struct {
		Name         string  `json:"name"`
		BaseURL      string  `json:"base_url"`
		Up           bool    `json:"up"`
		Breaker      string  `json:"breaker"`
		BreakerOpens int64   `json:"breaker_opens,omitempty"`
		Forwards     int64   `json:"forwards"`
		Errors       int64   `json:"errors,omitempty"`
		Ownership    float64 `json:"ring_ownership"`
	}
	own := rt.ring.Ownership()
	status := "ok"
	upCount := 0
	nodes := make([]nodeHealth, 0, len(rt.members))
	for _, name := range rt.ring.Nodes() {
		m := rt.members[name]
		st, _ := m.breaker.State()
		up := m.up.Load()
		if up {
			upCount++
		} else if status == "ok" {
			status = "degraded"
		}
		nodes = append(nodes, nodeHealth{
			Name: name, BaseURL: m.base, Up: up,
			Breaker: st, BreakerOpens: m.breaker.Opens(),
			Forwards: m.forwards.Load(), Errors: m.errs.Load(),
			Ownership: own[name],
		})
	}
	sloReport := rt.slomon.Report()
	if !sloReport.Healthy && status == "ok" {
		// Burning is degradation, not death: the code stays 200 so
		// upstream probes don't pull a router that is still answering.
		status = "burning"
	}
	code := http.StatusOK
	if upCount == 0 {
		status = "down"
		code = http.StatusServiceUnavailable
	}
	out := map[string]any{
		"status":           status,
		"steps":            rt.cfg.Steps,
		"nodes":            nodes,
		"nodes_up":         upCount,
		"cache_generation": rt.gen.Load(),
		// now_unix_nano mirrors the node healthz: a router fronted by
		// another router gets its clock offset measured the same way.
		"now_unix_nano": time.Now().UnixNano(),
	}
	if rt.slomon.Enabled() {
		out["slo"] = sloReport
	}
	writeJSON(w, code, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, rt.renderMetrics(r.Context()))
}

// handleTrace serves the merged fleet trace: the aggregator pulls every
// member's span ring incrementally (each node only ever re-sends what
// the router has not seen), aligns wall timestamps using the
// heartbeat-measured clock offsets, prefixes each node's process lanes
// with its name, and renders everything — router spans included — as
// one Chrome trace. ?reset=1 clears both the router ring and the
// collected node spans after the snapshot; member cursors survive, so
// no node span is ever double-pulled.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	rt.fleetTr.collect(r.Context(), rt)
	spans := append(rt.tracer.Snapshot(), rt.fleetTr.snapshot()...)
	out, err := telemetry.Chrome(spans)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, "rendering trace: %v", err)
		return
	}
	if r.URL.Query().Get("reset") == "1" {
		rt.tracer.Reset()
		rt.fleetTr.reset()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}
