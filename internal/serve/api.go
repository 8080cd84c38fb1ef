package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"binopt/internal/accel"
	"binopt/internal/obslog"
	"binopt/internal/option"
	"binopt/internal/telemetry"
	"binopt/internal/volatility"
	"binopt/internal/workload"
)

// MaxBodyBytes bounds request bodies (a 2000-contract batch is ~300 KB).
const MaxBodyBytes = 8 << 20

// ReadBody reads a request body of at most MaxBodyBytes. On failure it
// also returns the status to answer with: 413 for a body over the
// bound, 400 for any other read error.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, bodyStatus(err), err
	}
	return body, 0, nil
}

// bodyStatus maps a body read error to 413 when the body exceeded its
// http.MaxBytesReader bound and 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Contract is the wire form of an option contract.
type Contract struct {
	Right  string  `json:"right"` // "call" or "put"
	Style  string  `json:"style"` // "european" or "american"
	Spot   float64 `json:"spot"`
	Strike float64 `json:"strike"`
	Rate   float64 `json:"rate"`
	Div    float64 `json:"div,omitempty"`
	Sigma  float64 `json:"sigma"`
	T      float64 `json:"t"`
}

// ToOption converts the wire form, validating the enumerations.
func (c Contract) ToOption() (option.Option, error) {
	o := option.Option{
		Spot: c.Spot, Strike: c.Strike, Rate: c.Rate,
		Div: c.Div, Sigma: c.Sigma, T: c.T,
	}
	switch strings.ToLower(c.Right) {
	case "call":
		o.Right = option.Call
	case "put":
		o.Right = option.Put
	default:
		return o, fmt.Errorf("right must be \"call\" or \"put\", got %q", c.Right)
	}
	switch strings.ToLower(c.Style) {
	case "european":
		o.Style = option.European
	case "american":
		o.Style = option.American
	default:
		return o, fmt.Errorf("style must be \"european\" or \"american\", got %q", c.Style)
	}
	return o, o.Validate()
}

// FromOption converts a contract to its wire form.
func FromOption(o option.Option) Contract {
	return Contract{
		Right: o.Right.String(), Style: o.Style.String(),
		Spot: o.Spot, Strike: o.Strike, Rate: o.Rate,
		Div: o.Div, Sigma: o.Sigma, T: o.T,
	}
}

// PriceRequest is the body of POST /v1/price. A bare Contract object is
// also accepted as a single-option shorthand.
type PriceRequest struct {
	Contracts []Contract `json:"contracts"`
}

// PriceResponse is the body of a successful POST /v1/price.
type PriceResponse struct {
	Steps   int      `json:"steps"`
	Results []Result `json:"results"`
}

// QuoteJSON pairs a contract with its observed price for /v1/volcurve.
type QuoteJSON struct {
	Contract Contract `json:"contract"`
	Price    float64  `json:"price"`
}

// VolCurveRequest is the body of POST /v1/volcurve: the observed quotes
// whose implied volatilities the server recovers on its shards. Market
// data comes from the client; the node generates none.
type VolCurveRequest struct {
	Quotes []QuoteJSON `json:"quotes"`
}

// VolCurvePoint is one recovered point of the smile.
type VolCurvePoint struct {
	Strike    float64 `json:"strike"`
	Moneyness float64 `json:"moneyness"`
	Implied   float64 `json:"implied"`
}

// VolCurveResponse is the body of a successful POST /v1/volcurve.
type VolCurveResponse struct {
	Steps   int             `json:"steps"`
	Points  []VolCurvePoint `json:"points"`
	Skipped int             `json:"skipped"` // quotes with no vol information
	// ModelledJoules is the modelled energy of every solver round on
	// the shards that priced it: pricings × each shard's J/option.
	ModelledJoules float64 `json:"modelled_joules"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ParsePriceRequest decodes a POST /v1/price body, accepting both the
// batch form and the bare single-contract shorthand. It is the one
// definition of the endpoint's wire grammar, shared by the node handler
// and the cluster router so the two layers cannot drift.
func ParsePriceRequest(body []byte) (PriceRequest, error) {
	var req PriceRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Contracts) == 0 {
		// Single-contract shorthand: the body is one bare Contract.
		var single Contract
		if err2 := json.Unmarshal(body, &single); err2 == nil && single.Right != "" {
			req.Contracts = []Contract{single}
		} else if err != nil {
			return req, fmt.Errorf("bad JSON: %v", err)
		}
	}
	if len(req.Contracts) == 0 {
		return req, fmt.Errorf("no contracts in request")
	}
	return req, nil
}

// ParseVolCurveRequest decodes a POST /v1/volcurve body. A curve of no
// quotes is refused, and one of more than limit quotes is refused with
// ErrBatchTooLarge before anything is priced, as /v1/price refuses a
// batch larger than the queue depth.
func ParseVolCurveRequest(body []byte, limit int) (VolCurveRequest, error) {
	var req VolCurveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad JSON: %v", err)
	}
	switch n := len(req.Quotes); {
	case n == 0:
		return req, fmt.Errorf("no quotes in request")
	case n > limit:
		return req, fmt.Errorf("%w: %d quotes > depth %d", ErrBatchTooLarge, n, limit)
	}
	return req, nil
}

// Resolve converts the wire quotes into the ones the solver inverts:
// every quote a valid contract with a positive price.
func (r VolCurveRequest) Resolve() ([]workload.Quote, error) {
	quotes := make([]workload.Quote, len(r.Quotes))
	for i, q := range r.Quotes {
		o, err := q.Contract.ToOption()
		if err != nil {
			return nil, fmt.Errorf("quote %d: %v", i, err)
		}
		if !(q.Price > 0) {
			return nil, fmt.Errorf("quote %d: price must be positive, got %v", i, q.Price)
		}
		quotes[i] = workload.Quote{Option: o, Price: q.Price}
	}
	return quotes, nil
}

// Handler returns the service's HTTP API:
//
//	POST /v1/price       price one contract or a batch
//	POST /v1/scenarios   revalue a portfolio under a scenario set
//	POST /v1/volcurve    recover an implied-volatility curve
//	POST /v1/invalidate  apply a cache-generation bump (market-data update)
//	GET  /healthz        liveness and pool summary
//	GET  /metrics        counters, histograms, energy model
//	GET  /debug/slo      burn-rate monitor state (JSON)
//	GET  /debug/trace    Chrome trace-event JSON of the span ring
//	GET  /debug/spans    incremental span export (?cursor=N), the page
//	                     the fleet aggregator polls
//	                     (debug trace endpoints only when the server has
//	                     a tracer)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/price", s.handlePrice)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/volcurve", s.handleVolCurve)
	mux.HandleFunc("/v1/invalidate", s.handleInvalidate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	if s.tracer.Enabled() {
		mux.HandleFunc("/debug/trace", s.handleTrace)
		mux.HandleFunc("/debug/spans", s.handleSpans)
	}
	return mux
}

// handleTrace serves the span ring as Chrome trace-event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev. ?reset=1 clears the
// ring after the snapshot, for capturing disjoint windows.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.tracer.Snapshot()
	out, err := telemetry.Chrome(spans)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "rendering trace: %v", err)
		return
	}
	if r.URL.Query().Get("reset") == "1" {
		s.tracer.Reset()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// handleSpans serves the incremental span export the fleet trace
// aggregator polls: everything emitted after ?cursor=N (0 for a fresh
// consumer), the next cursor, and an honest missed count when the ring
// wrapped past an unread span. Unlike /debug/trace?reset=1 this is
// race-free across multiple consumers — each holds its own cursor and
// no one clears the ring.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	var cursor uint64
	if q := r.URL.Query().Get("cursor"); q != "" {
		var err error
		if cursor, err = strconv.ParseUint(q, 10, 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad cursor %q: %v", q, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.tracer.ExportSince(cursor, s.cfg.Node))
}

// handleSLO serves the burn-rate monitor's state. With no monitor
// configured the report is the healthy zero value — probes need no
// special-casing.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slomon.Report())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status >= 400 && status != http.StatusTooManyRequests {
		s.metrics.badRequests.Add(1)
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// edge is one request at the node's HTTP edge: what every pricing
// endpoint shares before and after its work, as cluster.Router's edge
// is at the fleet's.
type edge struct {
	s       *Server
	w       http.ResponseWriter
	path    string
	started time.Time
	// batch selects the SLO class: batch-class requests count toward
	// availability but are exempt from the interactive latency budget.
	batch bool
	trace string // distributed trace ID ("" untraced)
	span  *telemetry.Active
	log   *slog.Logger
	body  []byte
}

// begin runs the prologue every pricing endpoint shares: POST only,
// count the request on reqs, adopt the caller's traceparent (parenting
// this node's spans under the remote request) or mint a trace, open the
// request span, refuse new work once Close has begun, and read the
// bounded body. A malformed traceparent is served untraced-parented,
// not rejected. When begin returns false it has already answered the
// client; otherwise the caller ends e.span.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, reqs *atomic.Int64, batch bool) (*edge, bool) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	reqs.Add(1)
	e := &edge{s: s, w: w, path: r.URL.Path, started: time.Now(), batch: batch}
	trace, parent, fromRemote := telemetry.ParseTraceParent(r.Header.Get("traceparent"))
	if !fromRemote && s.tracer.Enabled() {
		trace = telemetry.NewTraceID()
	}
	e.trace = trace
	e.span = s.tracer.Begin("POST "+e.path, "host", "requests")
	e.span.SetReq(e.span.ID())
	e.span.SetTrace(trace)
	if fromRemote {
		e.span.SetAttr("parent_span", fmt.Sprintf("%016x", parent))
	}
	e.log = obslog.WithTrace(s.logger, trace, e.span.ID())
	if s.closed.Load() {
		e.fail(http.StatusServiceUnavailable, ErrClosed)
		e.span.End()
		return nil, false
	}
	body, status, err := ReadBody(w, r)
	if err != nil {
		e.span.End()
		s.writeError(w, status, "reading body: %v", err)
		return nil, false
	}
	e.body = body
	return e, true
}

// observe books the request's terminal outcome on the SLO monitor.
func (e *edge) observe(failed bool) {
	if e.batch {
		e.s.slomon.ObserveBatch(failed)
		return
	}
	e.s.slomon.Observe(time.Since(e.started), failed)
}

// fail answers a request its endpoint could not serve. The SLO monitor
// books every terminal outcome exactly once, and client mistakes (4xx)
// and backpressure (429, which carries Retry-After) spend no error
// budget — the objectives cover what the server owes well-formed
// traffic. A server-side failure (≥500) is booked and logged with
// attrs.
func (e *edge) fail(status int, err error, attrs ...any) {
	switch {
	case status == http.StatusTooManyRequests:
		e.w.Header().Set("Retry-After", strconv.Itoa(int(e.s.RetryAfter()/time.Second)))
	case status >= 500:
		e.observe(true)
		e.log.Warn("request failed", append(attrs, "path", e.path, "status", status, "error", err.Error())...)
	}
	e.s.writeError(e.w, status, "%v", err)
}

// reply books a success and answers v, echoing the trace identity so
// the client (loadgen, curl) can jump from a response straight to the
// merged trace.
func (e *edge) reply(v any) {
	e.observe(false)
	if e.trace != "" && e.span.ID() != 0 {
		e.w.Header().Set("traceparent", telemetry.FormatTraceParent(e.trace, e.span.ID()))
	}
	writeJSON(e.w, http.StatusOK, v)
}

// statusOf maps a serving error to its HTTP status: a batch too large
// for the queue 413, saturation 429, shutdown 503, anything else
// otherwise.
func statusOf(err error, otherwise int) int {
	switch {
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return otherwise
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	e, ok := s.begin(w, r, &s.metrics.requests, false)
	if !ok {
		return
	}
	defer e.span.End()
	req, err := ParsePriceRequest(e.body)
	if err != nil {
		e.fail(http.StatusBadRequest, err)
		return
	}
	opts := make([]option.Option, len(req.Contracts))
	for i, c := range req.Contracts {
		o, err := c.ToOption()
		if err != nil {
			e.fail(http.StatusBadRequest, fmt.Errorf("contract %d: %v", i, err))
			return
		}
		opts[i] = o
	}

	e.span.SetAttr("contracts", len(opts))
	ctx := telemetry.ContextWithTrace(r.Context(), telemetry.TraceContext{Trace: e.trace, Req: e.span.ID()})
	results, phases, err := s.PriceOptionsTimed(ctx, opts)
	if err != nil {
		e.fail(statusOf(err, http.StatusInternalServerError), err, "contracts", len(opts))
		return
	}
	s.metrics.requestJoules.ObserveExemplar(phases.Joules, e.trace)
	e.span.SetAttr("priced", phases.Priced)
	e.span.SetAttr("joules", phases.Joules)
	w.Header().Set("Server-Timing", phases.ServerTiming())
	e.reply(PriceResponse{Steps: s.cfg.Steps, Results: results})
	e.log.Debug("price request served",
		"contracts", len(opts), "priced", phases.Priced,
		"joules", phases.Joules, "latency", time.Since(e.started).Seconds())
}

// handleVolCurve solves an implied-volatility curve in lock-step rounds
// (volatility.Curve), each round one batch submission through the shard
// runner: placed energy-first, admitted, failed over and metered in
// modelled joules like every other pricing. The rounds carry fresh
// trial sigmas, so they bypass the result cache.
func (s *Server) handleVolCurve(w http.ResponseWriter, r *http.Request) {
	// Batch class: a 2000-quote curve is seconds of work by design.
	e, ok := s.begin(w, r, &s.metrics.volcurveReqs, true)
	if !ok {
		return
	}
	defer e.span.End()
	req, err := ParseVolCurveRequest(e.body, s.cfg.QueueDepth)
	if err != nil {
		e.fail(statusOf(err, http.StatusBadRequest), err)
		return
	}
	quotes, err := req.Resolve()
	if err != nil {
		e.fail(http.StatusBadRequest, err)
		return
	}
	e.span.SetAttr("quotes", len(quotes))

	var joules float64
	var shardErr error
	priceBatch := func(opts []option.Option) ([]float64, error) {
		var prices []float64
		be, err := s.onShard(int64(len(opts)), e.log, func(eng *accel.Engine) (err error) {
			prices, err = eng.PriceBatch(opts, 0)
			return err
		})
		if err != nil {
			shardErr = err
			return nil, err
		}
		j := float64(len(opts)) * be.joules
		s.metrics.solverPricings.Add(int64(len(opts)))
		s.metrics.solverJoules.add(j)
		joules += j
		return prices, nil
	}
	points, skipped, err := volatility.Curve(quotes, priceBatch)
	switch {
	case shardErr != nil:
		e.fail(statusOf(shardErr, http.StatusInternalServerError), err, "quotes", len(quotes))
		return
	case err != nil:
		// Every other Curve error is about a quote: the client's fault.
		e.fail(http.StatusBadRequest, err)
		return
	}
	s.metrics.requestJoules.ObserveExemplar(joules, e.trace)
	e.span.SetAttr("joules", joules)
	out := make([]VolCurvePoint, len(points))
	for i, p := range points {
		out[i] = VolCurvePoint{Strike: p.Strike, Moneyness: p.Mny, Implied: p.Implied}
	}
	e.reply(VolCurveResponse{Steps: s.cfg.Steps, Points: out, Skipped: skipped, ModelledJoules: joules})
}

// InvalidateRequest is the body of POST /v1/invalidate: a market-data
// generation bump, typically a vol-surface update. Generation 0 (or an
// absent field) means "one past whatever you have" — the convenient
// spelling for a human curl; gossip always carries the explicit
// generation so re-deliveries stay idempotent.
type InvalidateRequest struct {
	Generation uint64 `json:"generation,omitempty"`
	// Origin names the node or client where the update entered the
	// fleet; echoed into logs/metrics labels only.
	Origin string `json:"origin,omitempty"`
}

// InvalidateResponse reports the outcome of a generation bump.
type InvalidateResponse struct {
	// Applied is true when the bump was fresh and the cache flushed.
	Applied bool `json:"applied"`
	// Generation is the server's generation after the request.
	Generation uint64 `json:"generation"`
}

// MaxInvalidateBytes bounds a POST /v1/invalidate body.
const MaxInvalidateBytes = 1 << 16

// ReadInvalidate reads and decodes a POST /v1/invalidate body of at most
// MaxInvalidateBytes; an empty body is the zero request. It is the one
// parser behind every invalidate endpoint — node, gossiping node and
// router. On failure it also returns the status to answer with: 413 for
// a body over the bound, 400 for anything else.
func ReadInvalidate(w http.ResponseWriter, r *http.Request) (InvalidateRequest, int, error) {
	var req InvalidateRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxInvalidateBytes))
	if err != nil {
		return req, bodyStatus(err), fmt.Errorf("reading body: %w", err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return req, 0, nil
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
	return req, 0, nil
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	req, status, err := ReadInvalidate(w, r)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	gen := req.Generation
	if gen == 0 {
		gen = s.cacheGen.Load() + 1
	}
	applied := s.Invalidate(gen)
	writeJSON(w, http.StatusOK, InvalidateResponse{Applied: applied, Generation: s.cacheGen.Load()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	type backendHealth struct {
		Name          string  `json:"name"`
		Kind          string  `json:"kind,omitempty"`
		OptionsPerSec float64 `json:"modelled_options_per_sec"`
		PowerWatts    float64 `json:"modelled_power_watts"`
		Pending       int64   `json:"pending_options"`
		PricedOptions int64   `json:"priced_options,omitempty"`
		Breaker       string  `json:"breaker"`
		BreakerOpens  int64   `json:"breaker_opens,omitempty"`
		PriceErrors   int64   `json:"price_errors,omitempty"`
	}
	bs := make([]backendHealth, len(s.backends))
	for i, be := range s.backends {
		st, opens := be.breaker.snapshot()
		bs[i] = backendHealth{
			Name:          be.cfg.Name,
			Kind:          be.cfg.Engine.Describe().Kind,
			OptionsPerSec: be.rate,
			PowerWatts:    be.cfg.Engine.Estimate().PowerWatts,
			Pending:       be.pending.Load(),
			PricedOptions: be.cfg.Engine.PricedOptions(),
			Breaker:       st.String(),
			BreakerOpens:  opens,
			PriceErrors:   be.errs.Load(),
		}
		// A pool serving around an open breaker is degraded, not down:
		// clients still get every price, so the HTTP code stays 200 and
		// the status string carries the signal.
		if st == breakerOpen && status == "ok" {
			status = "degraded"
		}
	}
	sloReport := s.slomon.Report()
	// An SLO burn is degradation the same way an open breaker is:
	// clients are being served, badly. Status carries the signal, the
	// code stays 200 so liveness probes don't amplify the incident by
	// pulling the node.
	if !sloReport.Healthy && status == "ok" {
		status = "burning"
	}
	out := map[string]any{
		"status":           status,
		"steps":            s.cfg.Steps,
		"queue_depth":      s.queued.Load(),
		"cache_generation": s.cacheGen.Load(),
		// now_unix_nano is this node's wall clock at render time; the
		// cluster heartbeat reads it (against the poll's RTT) to
		// estimate per-node clock offsets for trace merging.
		"now_unix_nano": time.Now().UnixNano(),
		"backends":      bs,
	}
	if s.cfg.Node != "" {
		out["node"] = s.cfg.Node
	}
	if s.slomon.Enabled() {
		out["slo"] = sloReport
	}
	writeJSON(w, code, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, s.metrics.render(s.queued.Load(), s.cache.len(), s.cacheGen.Load()))
}
