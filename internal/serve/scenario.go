package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"binopt/internal/accel"
	"binopt/internal/lattice"
	"binopt/internal/scenario"
	"binopt/internal/telemetry"
)

// ScenarioPosition is the wire form of one signed holding: a contract
// and a quantity (negative = short).
type ScenarioPosition struct {
	Contract Contract `json:"contract"`
	Quantity float64  `json:"quantity"`
}

// ShockJSON is the wire form of one scenario shock. Absent multipliers
// default to the identity (1), so a pure rate-shift ladder need not
// spell out "spot_mul": 1 on every line.
type ShockJSON struct {
	Label   string   `json:"label,omitempty"`
	SpotMul *float64 `json:"spot_mul,omitempty"`
	VolMul  *float64 `json:"vol_mul,omitempty"`
	RateAdd float64  `json:"rate_add,omitempty"`
}

func (sj ShockJSON) toShock() scenario.Shock {
	s := scenario.Shock{Label: sj.Label, SpotMul: 1, VolMul: 1, RateAdd: sj.RateAdd}
	if sj.SpotMul != nil {
		s.SpotMul = *sj.SpotMul
	}
	if sj.VolMul != nil {
		s.VolMul = *sj.VolMul
	}
	return s
}

// ScenarioRequest is the body of POST /v1/scenarios: a portfolio plus
// either an explicit shock list or a grid spec (exactly one of the
// two). It is the one wire grammar for the endpoint, shared by the node
// handler and the cluster router — the router re-marshals sub-requests
// in this same shape with explicit shock slices.
type ScenarioRequest struct {
	Portfolio []ScenarioPosition `json:"portfolio"`
	Shocks    []ShockJSON        `json:"shocks,omitempty"`
	Grid      *scenario.GridSpec `json:"grid,omitempty"`
	Quantiles []float64          `json:"quantiles,omitempty"`
	// SkipGreeks suppresses the base book's net-Greeks pass. The fleet
	// router sets it on all but one shard so the book's sensitivities
	// are computed exactly once per request.
	SkipGreeks bool `json:"skip_greeks,omitempty"`
}

// GreeksJSON is the wire form of the book's net sensitivities.
type GreeksJSON struct {
	Delta float64 `json:"delta"`
	Gamma float64 `json:"gamma"`
	Theta float64 `json:"theta"`
	Vega  float64 `json:"vega"`
	Rho   float64 `json:"rho"`
}

func greeksJSON(g lattice.Greeks) *GreeksJSON {
	return &GreeksJSON{Delta: g.Delta, Gamma: g.Gamma, Theta: g.Theta, Vega: g.Vega, Rho: g.Rho}
}

// ScenarioResponse is the body of a successful POST /v1/scenarios.
// Every float is bit-identical to revaluing the same book serially
// through the scalar reference lattice, which is what makes solo,
// cached and fleet-sharded answers comparable to the last bit.
type ScenarioResponse struct {
	Steps     int         `json:"steps"`
	BaseValue float64     `json:"base_value"`
	Greeks    *GreeksJSON `json:"greeks,omitempty"`
	HasGreeks bool        `json:"has_greeks"`

	Scenarios []scenario.ScenarioValue `json:"scenarios"`
	Risk      []scenario.RiskMeasure   `json:"risk"`

	// Evaluations counts contract evaluations on the pricing substrate
	// (the base Greeks pass books every lane it priced: five per
	// position under CRR, six otherwise).
	Evaluations int64 `json:"evaluations"`
	// ModelledJoules is Evaluations × the pricing backend's modelled
	// per-option energy (zero for cache hits).
	ModelledJoules float64 `json:"modelled_joules"`
	Cached         bool    `json:"cached"`
	// Backend names the engine shard that priced the revaluation
	// ("cache" on a hit).
	Backend string `json:"backend"`
	Node    string `json:"node,omitempty"`
}

// ParseScenarioRequest decodes a POST /v1/scenarios body.
func ParseScenarioRequest(body []byte) (ScenarioRequest, error) {
	var req ScenarioRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad JSON: %v", err)
	}
	if len(req.Shocks) == 0 && req.Grid == nil {
		return req, fmt.Errorf("supply shocks or grid")
	}
	if len(req.Shocks) > 0 && req.Grid != nil {
		return req, fmt.Errorf("supply shocks or grid, not both")
	}
	if len(req.Shocks) > scenario.MaxGridScenarios {
		return req, fmt.Errorf("%d shocks exceed the %d-scenario cap", len(req.Shocks), scenario.MaxGridScenarios)
	}
	return req, nil
}

// Resolve converts the wire request into engine terms: the validated
// book, the expanded shock list, and the quantile set. An empty
// portfolio is valid — it revalues to the documented zero report, the
// same empty-book convention ValuePortfolio follows.
func (r ScenarioRequest) Resolve() ([]scenario.Position, []scenario.Shock, []float64, error) {
	book := make([]scenario.Position, len(r.Portfolio))
	for i, p := range r.Portfolio {
		o, err := p.Contract.ToOption()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("position %d: %v", i, err)
		}
		if math.IsNaN(p.Quantity) || math.IsInf(p.Quantity, 0) {
			return nil, nil, nil, fmt.Errorf("position %d: quantity must be finite, got %v", i, p.Quantity)
		}
		book[i] = scenario.Position{Option: o, Quantity: p.Quantity}
	}

	var shocks []scenario.Shock
	if r.Grid != nil {
		var err error
		if shocks, err = r.Grid.Shocks(); err != nil {
			return nil, nil, nil, err
		}
	} else {
		shocks = make([]scenario.Shock, len(r.Shocks))
		for i, sj := range r.Shocks {
			shocks[i] = sj.toShock()
			if err := shocks[i].Validate(); err != nil {
				return nil, nil, nil, fmt.Errorf("shock %d: %v", i, err)
			}
		}
	}

	quantiles := r.Quantiles
	if len(quantiles) == 0 {
		quantiles = scenario.DefaultQuantiles
	}
	for _, c := range quantiles {
		if math.IsNaN(c) || c <= 0 || c >= 1 {
			return nil, nil, nil, fmt.Errorf("quantile must be in (0,1), got %v", c)
		}
	}
	return book, shocks, quantiles, nil
}

// scenarioKey canonicalises a resolved request into a fixed-size cache
// key: the sha256 of steps, every position's contract Key and quantity
// bits, every shock's bit-pattern Key and label, the quantile bits and
// the Greeks flag. Everything that can change a byte of the response is
// in the hash, so two requests collide only when their responses are
// identical.
func scenarioKey(steps int, book []scenario.Position, shocks []scenario.Shock, quantiles []float64, skipGreeks bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d;greeks=%t;", steps, !skipGreeks)
	for _, pos := range book {
		fmt.Fprintf(h, "p=%s*%016x;", KeyFor(pos.Option, steps).String(), math.Float64bits(pos.Quantity))
	}
	for _, sh := range shocks {
		fmt.Fprintf(h, "s=%s|%s;", sh.Key(), sh.Label)
	}
	for _, q := range quantiles {
		fmt.Fprintf(h, "q=%016x;", math.Float64bits(q))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioCacheCap bounds the scenario-report LRU. Reports are whole
// revaluations (thousands of evaluations each), so a small cache of
// them shields the engines from the dominant steady-state pattern — the
// same stress grid re-requested every time a dashboard refreshes.
const scenarioCacheCap = 256

// scenarioCacheCapFor derives the scenario cache's capacity from the
// contract cache's configured size: caching disabled (negative) turns
// the scenario cache off too, anything else gets the fixed report
// capacity.
func scenarioCacheCapFor(cacheSize int) int {
	if cacheSize < 0 {
		return 0
	}
	return scenarioCacheCap
}

// revalue runs one revaluation through the shard runner, so it is
// placed, admitted, failed over and booked like every other pricing,
// and returns the report with the shard that priced it. The work is
// the whole cross product: every shocked book plus the base book.
func (s *Server) revalue(req scenario.Request, log *slog.Logger) (scenario.Report, *backend, error) {
	var rep scenario.Report
	n := int64(len(req.Shocks)+1) * int64(len(req.Book))
	be, err := s.onShard(n, log, func(eng *accel.Engine) (err error) {
		rep, err = scenario.New(eng, 0).Revalue(req)
		return err
	})
	return rep, be, err
}

// scenarioServerTiming renders the revaluation's phase breakdown in the
// same Server-Timing shape the price path uses; joules abuses the dur=
// slot exactly as PhaseBreakdown.ServerTiming does.
func scenarioServerTiming(expand, price, aggregate time.Duration, evals int64, joules float64) string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("expand;dur=%.3f, price;dur=%.3f, aggregate;dur=%.3f, evals;dur=%d, joules;dur=%.9g",
		ms(expand), ms(price), ms(aggregate), evals, joules)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	// Batch-class SLO observation: a stress grid counts toward
	// availability but is exempt from the interactive latency budget.
	e, ok := s.begin(w, r, &s.metrics.scenarioReqs, true)
	if !ok {
		return
	}
	defer e.span.End()
	req, err := ParseScenarioRequest(e.body)
	if err != nil {
		e.fail(http.StatusBadRequest, err)
		return
	}

	// Expand phase: wire → engine terms, including grid expansion.
	book, shocks, quantiles, err := req.Resolve()
	if err != nil {
		e.fail(http.StatusBadRequest, err)
		return
	}
	expandDone := time.Now()
	e.span.SetAttr("positions", len(book))
	e.span.SetAttr("scenarios", len(shocks))

	emitPhase := func(name string, start time.Time, d time.Duration) {
		if !s.tracer.Enabled() {
			return
		}
		s.tracer.Emit(telemetry.Span{
			Req: e.span.ID(), Trace: e.trace, Name: name, Proc: "host", Thread: "scenarios",
			Start: start, Dur: d, Clock: telemetry.Wall,
			Attrs: map[string]any{"positions": len(book), "scenarios": len(shocks)},
		})
	}
	emitPhase("expand", e.started, expandDone.Sub(e.started))

	key := scenarioKey(s.cfg.Steps, book, shocks, quantiles, req.SkipGreeks)
	if rep, ok := s.scenarios.get(key); ok {
		s.metrics.scenarioCacheHits.Add(1)
		e.reply(s.scenarioResponse(rep, true, "cache", 0))
		e.log.Debug("scenario request served from cache",
			"positions", len(book), "scenarios", len(shocks), "latency", time.Since(e.started).Seconds())
		return
	}

	// Price phase: base book (with Greeks unless skipped) plus the whole
	// scenario cross product through the quad-interleaved batch path, on
	// the shard the pool's placement policy picks.
	rep, be, err := s.revalue(scenario.Request{
		Book: book, Shocks: shocks, Quantiles: quantiles, SkipGreeks: req.SkipGreeks,
	}, e.log)
	priceDone := time.Now()
	emitPhase("price", expandDone, priceDone.Sub(expandDone))
	if err != nil {
		e.fail(statusOf(err, http.StatusInternalServerError), err, "positions", len(book), "scenarios", len(shocks))
		return
	}
	// Aggregate phase: energy ledger, metrics, cache fill, response.
	joules := float64(rep.Evaluations) * be.joules
	s.metrics.scenarioShocks.Add(int64(len(shocks)))
	s.metrics.scenarioEvals.Add(rep.Evaluations)
	s.metrics.scenarioJoules.add(joules)
	s.metrics.requestJoules.ObserveExemplar(joules, e.trace)
	s.scenarios.put(key, rep)
	s.metrics.scenarioLatency.Observe(time.Since(e.started).Seconds())
	emitPhase("aggregate", priceDone, time.Since(priceDone))
	e.span.SetAttr("evaluations", rep.Evaluations)
	e.span.SetAttr("joules", joules)

	w.Header().Set("Server-Timing", scenarioServerTiming(
		expandDone.Sub(e.started), priceDone.Sub(expandDone), time.Since(priceDone), rep.Evaluations, joules))
	e.reply(s.scenarioResponse(rep, false, be.cfg.Name, joules))
	e.log.Debug("scenario request served",
		"positions", len(book), "scenarios", len(shocks), "evaluations", rep.Evaluations,
		"backend", be.cfg.Name, "joules", joules, "latency", time.Since(e.started).Seconds())
}

// scenarioResponse renders one revaluation report in its wire form.
func (s *Server) scenarioResponse(rep scenario.Report, cached bool, backendName string, joules float64) ScenarioResponse {
	resp := ScenarioResponse{
		Steps:          s.cfg.Steps,
		BaseValue:      rep.BaseValue,
		HasGreeks:      rep.HasGreeks,
		Scenarios:      rep.Scenarios,
		Risk:           rep.Risk,
		Evaluations:    rep.Evaluations,
		ModelledJoules: joules,
		Cached:         cached,
		Backend:        backendName,
		Node:           s.cfg.Node,
	}
	if rep.HasGreeks {
		resp.Greeks = greeksJSON(rep.Greeks)
	}
	return resp
}
