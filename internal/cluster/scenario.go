package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"binopt/internal/obslog"
	"binopt/internal/scenario"
	"binopt/internal/serve"
	"binopt/internal/telemetry"
)

// scenFwdResult is one scenario sub-request's forward outcome.
type scenFwdResult struct {
	resp    serve.ScenarioResponse
	m       *member
	status  int // HTTP status, 0 on transport error
	elapsed time.Duration
	err     error
}

func (r scenFwdResult) retryable() bool {
	return r.status == 0 || r.status >= 500 || r.status == http.StatusTooManyRequests
}

// forwardScenario posts one scenario sub-request to one member and
// decodes the reply, feeding the member's breaker exactly as the price
// path does (429 saturation is load, not ill-health).
func (rt *Router) forwardScenario(ctx context.Context, m *member, body []byte, want int, traceparent string) scenFwdResult {
	t0 := time.Now()
	m.forwards.Add(1)
	out := scenFwdResult{m: m}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.base+"/v1/scenarios", bytes.NewReader(body))
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
		if resp.StatusCode != http.StatusTooManyRequests {
			m.breaker.OnFailure()
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.err = fmt.Errorf("node %s: HTTP %d: %s", m.name, resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	if err := json.NewDecoder(resp.Body).Decode(&out.resp); err != nil {
		m.errs.Add(1)
		m.breaker.OnFailure()
		out.err = fmt.Errorf("node %s: decoding response: %w", m.name, err)
		return out
	}
	if len(out.resp.Scenarios) != want {
		m.errs.Add(1)
		m.breaker.OnFailure()
		out.err = fmt.Errorf("node %s: %d scenarios for %d requested", m.name, len(out.resp.Scenarios), want)
		return out
	}
	out.elapsed = time.Since(t0)
	m.breaker.OnSuccess()
	return out
}

// wireShocks converts resolved shocks back to their explicit wire form
// for a sub-request, labels included — the node must not re-derive
// anything the router already fixed.
func wireShocks(shocks []scenario.Shock) []serve.ShockJSON {
	out := make([]serve.ShockJSON, len(shocks))
	for i := range shocks {
		sh := shocks[i]
		out[i] = serve.ShockJSON{Label: sh.Label, SpotMul: &sh.SpotMul, VolMul: &sh.VolMul, RateAdd: sh.RateAdd}
	}
	return out
}

// routeScenarios revalues one client request across the fleet by
// sharding the scenario axis: scenarios are grouped by the ring owner of
// their shock key (the whole book travels with every group — the book is
// small, the scenario axis is what explodes), groups forward
// concurrently, failed groups re-place onto successors with the failed
// node excluded, and per-scenario results merge back in request order.
//
// Every node prices the base book identically (bit-identical lattices),
// so per-scenario P&L needs no cross-shard reconciliation; the Greeks
// pass runs on exactly one shard — the one holding the lowest
// still-unmerged scenario index — and every other sub-request sets
// skip_greeks. The router recomputes VaR/ES over the merged P&L, which
// reproduces a solo node's numbers exactly because the risk computation
// is a deterministic sort plus fixed-order tail sums.
func (rt *Router) routeScenarios(ctx context.Context, reqID uint64, trace, fallbackTP string, wreq serve.ScenarioRequest, shocks []scenario.Shock, quantiles []float64) (serve.ScenarioResponse, int, error) {
	out := serve.ScenarioResponse{
		Steps:     rt.cfg.Steps,
		Scenarios: make([]scenario.ScenarioValue, len(shocks)),
		Backend:   "fleet",
	}
	keys := make([]string, len(shocks))
	for i, sh := range shocks {
		keys[i] = sh.Key()
	}

	remaining := make([]int, len(shocks))
	for i := range remaining {
		remaining[i] = i
	}
	excluded := make(map[string]bool)
	greeksMerged := false
	baseMerged := false
	var lastErr error
	lastStatus := http.StatusBadGateway

	for attempt := 0; attempt < rt.cfg.MaxAttempts && len(remaining) > 0; attempt++ {
		if attempt > 0 {
			rt.metrics.scenarioFailovers.Add(int64(len(remaining)))
		}
		groups := make(map[*member][]int)
		for _, i := range remaining {
			m := rt.pick(keys[i], excluded)
			if m == nil {
				return out, http.StatusBadGateway,
					fmt.Errorf("no nodes left for scenario %d after %d exclusions", i, len(excluded))
			}
			groups[m] = append(groups[m], i)
		}
		// The Greeks pass runs once per request: the group holding the
		// lowest unmerged scenario index carries it (deterministic, and
		// re-assigned automatically if that group's node fails over).
		var greeksOwner *member
		if !wreq.SkipGreeks && !greeksMerged {
			low := -1
			for m, idx := range groups {
				if low < 0 || idx[0] < low {
					low, greeksOwner = idx[0], m
				}
			}
		}

		var (
			mu     sync.Mutex
			wg     sync.WaitGroup
			failed []int
		)
		for m, idx := range groups {
			wg.Add(1)
			go func(m *member, idx []int, withGreeks bool) {
				defer wg.Done()
				rt.metrics.scenarioShards.Add(1)
				sub := serve.ScenarioRequest{
					Portfolio:  wreq.Portfolio,
					Quantiles:  quantiles,
					SkipGreeks: !withGreeks,
				}
				subShocks := make([]scenario.Shock, len(idx))
				for j, i := range idx {
					subShocks[j] = shocks[i]
				}
				sub.Shocks = wireShocks(subShocks)
				body, err := json.Marshal(sub)
				if err != nil {
					mu.Lock()
					failed = append(failed, idx...)
					lastErr = err
					mu.Unlock()
					return
				}
				var fwdID uint64
				tp := fallbackTP
				if trace != "" {
					if fwdID = rt.tracer.NextID(); fwdID != 0 {
						tp = telemetry.FormatTraceParent(trace, fwdID)
					}
				}
				t0 := time.Now()
				r := rt.forwardScenario(ctx, m, body, len(idx), tp)
				rt.emitScenarioForwardSpan(reqID, trace, fwdID, m, r, t0, len(idx), attempt)
				mu.Lock()
				defer mu.Unlock()
				if r.err != nil {
					lastErr = r.err
					if r.status == http.StatusTooManyRequests {
						lastStatus = http.StatusTooManyRequests
					}
					excluded[r.m.name] = true
					if !r.retryable() {
						lastStatus = r.status
					}
					failed = append(failed, idx...)
					return
				}
				for j, i := range idx {
					out.Scenarios[i] = r.resp.Scenarios[j]
				}
				out.Evaluations += r.resp.Evaluations
				out.ModelledJoules += r.resp.ModelledJoules
				// Base value is bit-identical on every node; keep the
				// first merged one and let the Greeks owner's sub-response
				// contribute the sensitivities.
				if !baseMerged {
					out.BaseValue = r.resp.BaseValue
					baseMerged = true
				}
				if withGreeks && r.resp.HasGreeks {
					out.Greeks = r.resp.Greeks
					out.HasGreeks = true
					greeksMerged = true
				}
			}(m, idx, m == greeksOwner)
		}
		wg.Wait()
		remaining = failed
	}

	if len(remaining) > 0 {
		rt.metrics.routeErrors.Add(1)
		if lastErr == nil {
			lastErr = fmt.Errorf("cluster: %d scenarios unplaced", len(remaining))
		}
		return out, lastStatus, lastErr
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

// emitScenarioForwardSpan records one scenario sub-request forward on
// the router's trace, on the target node's lane.
func (rt *Router) emitScenarioForwardSpan(reqID uint64, trace string, fwdID uint64, m *member, r scenFwdResult, start time.Time, n, attempt int) {
	if !rt.tracer.Enabled() {
		return
	}
	name := "scenario-forward"
	if r.err != nil {
		name = "scenario-forward-error"
	}
	rt.tracer.Emit(telemetry.Span{
		ID: fwdID, Req: reqID, Trace: trace,
		Name: name, Proc: "router", Thread: "node " + m.name,
		Start: start, Dur: r.elapsed, Clock: telemetry.Wall,
		Attrs: map[string]any{
			"node":      m.name,
			"scenarios": n,
			"attempt":   attempt + 1,
			"status":    r.status,
		},
	})
}

// handleScenarios is the fleet edge of POST /v1/scenarios: same wire
// grammar as a member node, answered by sharding the scenario axis over
// the ring and merging in order — a client cannot tell a router from a
// node except by throughput.
func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	rt.metrics.scenarioReqs.Add(1)
	started := time.Now()

	trace, parent, fromRemote := telemetry.ParseTraceParent(r.Header.Get("traceparent"))
	if !fromRemote && rt.tracer.Enabled() {
		trace = telemetry.NewTraceID()
	}
	fallbackTP := ""
	if fromRemote {
		fallbackTP = r.Header.Get("traceparent")
	}
	span := rt.tracer.Begin("POST /v1/scenarios", "router", "requests")
	span.SetReq(span.ID())
	span.SetTrace(trace)
	if fromRemote {
		span.SetAttr("parent_span", fmt.Sprintf("%016x", parent))
	}
	defer span.End()
	log := obslog.WithTrace(rt.logger, trace, span.ID())

	// Batch-class SLO observation: a sharded stress grid counts toward
	// availability but is exempt from the interactive latency budget.
	observe := func(failed bool) { rt.slomon.ObserveBatch(failed) }

	body, status, err := serve.ReadBody(w, r)
	if err != nil {
		rt.writeError(w, status, "reading body: %v", err)
		return
	}
	req, err := serve.ParseScenarioRequest(body)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, shocks, quantiles, err := req.Resolve()
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.SetAttr("positions", len(req.Portfolio))
	span.SetAttr("scenarios", len(shocks))

	resp, status, err := rt.routeScenarios(r.Context(), span.ID(), trace, fallbackTP, req, shocks, quantiles)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		if status >= 500 {
			observe(true)
			log.Warn("scenario route failed",
				"positions", len(req.Portfolio), "scenarios", len(shocks),
				"status", status, "error", err.Error())
		}
		rt.writeError(w, status, "%v", err)
		return
	}
	observe(false)

	span.SetAttr("evaluations", resp.Evaluations)
	span.SetAttr("joules", resp.ModelledJoules)
	if trace != "" && span.ID() != 0 {
		w.Header().Set("traceparent", telemetry.FormatTraceParent(trace, span.ID()))
	}
	writeJSON(w, http.StatusOK, resp)
	log.Debug("scenario request routed",
		"positions", len(req.Portfolio), "scenarios", len(shocks),
		"evaluations", resp.Evaluations, "joules", resp.ModelledJoules,
		"latency", time.Since(started).Seconds())
}
