package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"binopt/internal/scenario"
	"binopt/internal/serve"
)

// routeScenarios revalues one client request across the fleet by
// sharding the scenario axis: scenarios place by their shock key (the
// whole book travels with every group — the book is small, the scenario
// axis is what explodes) and per-scenario results merge back in request
// order through the same fan-out loop as /v1/price, hedging included.
//
// Every node prices the base book identically (bit-identical lattices),
// so per-scenario P&L needs no cross-shard reconciliation; the Greeks
// pass runs on exactly one shard — the group holding scenario 0,
// re-assigned automatically if that group fails over — and every other
// sub-request sets skip_greeks. The
// router recomputes VaR/ES over the merged P&L, which reproduces a solo
// node's numbers exactly because the risk computation is a
// deterministic sort plus fixed-order tail sums.
func (rt *Router) routeScenarios(ctx context.Context, e *edge, wreq serve.ScenarioRequest, shocks []scenario.Shock, quantiles []float64) (serve.ScenarioResponse, int, error) {
	out := serve.ScenarioResponse{
		Steps:     rt.cfg.Steps,
		Scenarios: make([]scenario.ScenarioValue, len(shocks)),
		Backend:   "fleet",
	}
	keys := make([]string, len(shocks))
	for i, sh := range shocks {
		keys[i] = sh.Key()
	}
	status, err := fanOut(ctx, e, endpoint[serve.ScenarioResponse]{
		path: "/v1/scenarios", item: "scenario", keys: keys,
		build: func(idx []int, owner bool) ([]byte, error) {
			// Shocks travel in explicit wire form, labels included — the
			// node must not re-derive anything the router already fixed.
			sub := serve.ScenarioRequest{
				Portfolio:  wreq.Portfolio,
				Shocks:     make([]serve.ShockJSON, len(idx)),
				Quantiles:  quantiles,
				SkipGreeks: !owner || wreq.SkipGreeks,
			}
			for j, i := range idx {
				sh := shocks[i]
				sub.Shocks[j] = serve.ShockJSON{Label: sh.Label, SpotMul: &sh.SpotMul, VolMul: &sh.VolMul, RateAdd: sh.RateAdd}
			}
			return json.Marshal(sub)
		},
		count: func(r *serve.ScenarioResponse) int { return len(r.Scenarios) },
		merge: func(idx []int, owner bool, r fwdResult[serve.ScenarioResponse]) {
			for j, i := range idx {
				out.Scenarios[i] = r.resp.Scenarios[j]
			}
			out.Evaluations += r.resp.Evaluations
			out.ModelledJoules += r.resp.ModelledJoules
			// The base value is bit-identical on every node.
			out.BaseValue = r.resp.BaseValue
			if owner && r.resp.HasGreeks {
				out.Greeks = r.resp.Greeks
				out.HasGreeks = true
			}
		},
		failovers: &rt.metrics.scenarioFailovers,
		shards:    &rt.metrics.scenarioShards,
	})
	if err != nil {
		return out, status, err
	}

	// Recompute the risk quantiles over the merged P&L distribution —
	// deterministic, so bit-identical to a solo node's report.
	pnl := make([]float64, len(out.Scenarios))
	for i, sv := range out.Scenarios {
		pnl[i] = sv.PnL
	}
	risk, err := scenario.RiskMeasures(pnl, quantiles)
	if err != nil {
		return out, http.StatusInternalServerError, err
	}
	out.Risk = risk
	return out, http.StatusOK, nil
}

// handleScenarios is the fleet edge of POST /v1/scenarios: same wire
// grammar as a member node, answered by sharding the scenario axis over
// the ring and merging in order — a client cannot tell a router from a
// node except by throughput. A sharded stress grid is batch-class for
// the SLO monitor.
func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	e, ok := rt.begin(w, r, &rt.metrics.scenarioReqs, true)
	if !ok {
		return
	}
	defer e.span.End()
	req, err := serve.ParseScenarioRequest(e.body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, shocks, quantiles, err := req.Resolve()
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e.span.SetAttr("positions", len(req.Portfolio))
	e.span.SetAttr("scenarios", len(shocks))

	resp, status, err := rt.routeScenarios(r.Context(), e, req, shocks, quantiles)
	if err != nil {
		e.fail(status, err, "path", r.URL.Path, "positions", len(req.Portfolio), "scenarios", len(shocks))
		return
	}
	e.span.SetAttr("evaluations", resp.Evaluations)
	e.span.SetAttr("joules", resp.ModelledJoules)
	e.reply(resp)
	e.log.Debug("scenario request routed",
		"positions", len(req.Portfolio), "scenarios", len(shocks),
		"evaluations", resp.Evaluations, "joules", resp.ModelledJoules,
		"latency", time.Since(e.started).Seconds())
}
