package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routerMetrics are the router's own counters; fleet-level figures are
// scraped live from the member nodes at render time, falling back to
// each member's last good scrape when it is unreachable.
type routerMetrics struct {
	requests      atomic.Int64 // POST /v1/price at the router
	options       atomic.Int64 // contracts answered to clients
	hedges        atomic.Int64 // hedged duplicates launched
	hedgeWins     atomic.Int64 // hedged duplicates that answered first
	failovers     atomic.Int64 // contracts re-placed after a node failure
	routeErrors   atomic.Int64 // batches that exhausted every attempt
	invalidations atomic.Int64 // generation bumps broadcast

	scenarioReqs      atomic.Int64 // POST /v1/scenarios at the router
	scenarioShards    atomic.Int64 // scenario sub-requests forwarded
	scenarioFailovers atomic.Int64 // scenarios re-placed after a node failure

	// lastScrape caches each member's most recent successful scrape. A
	// node that stops answering keeps contributing its last known
	// figures (marked stale) instead of zeroing the fleet gauges — a
	// rack does not lose half its served-options history because one
	// board rebooted during a scrape.
	scrapeMu   sync.Mutex
	lastScrape map[string]nodeScrape
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{lastScrape: make(map[string]nodeScrape)}
}

// nodeScrape is the slice of one member's /metrics the fleet roll-up
// needs.
type nodeScrape struct {
	name          string
	ok            bool
	optionsPriced float64 // binopt_options_priced_total
	optionsServed float64 // binopt_options_served_total
	windowRate    float64 // binopt_options_per_sec_window
	joules        float64 // binopt_modelled_joules_total
	cacheGen      float64 // binopt_cache_generation
	cacheHits     float64 // binopt_cache_hits_total
}

// scrapeNode pulls one member's /metrics and extracts the fleet
// ingredients. A scrape failure marks the node absent from the roll-up
// rather than failing the render — the fleet page must stay up while a
// node is down; that is when it is read.
func scrapeNode(ctx context.Context, m *member) nodeScrape {
	out := nodeScrape{name: m.name}
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, m.base+"/metrics", nil)
	if err != nil {
		return out
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out
	}
	out = parseScrape(resp.Body)
	out.name = m.name
	return out
}

// maxScrapeBytes bounds how much of a member's /metrics page a scrape
// reads.
const maxScrapeBytes = 1 << 20

// parseScrape extracts the fleet ingredients from a node /metrics page,
// reading at most maxScrapeBytes. Comments, blank lines, unparseable
// values and metrics the roll-up does not use are skipped; ok reports
// that the page scanned cleanly.
func parseScrape(r io.Reader) nodeScrape {
	var out nodeScrape
	sc := bufio.NewScanner(io.LimitReader(r, maxScrapeBytes))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, found := strings.Cut(line, " ")
		if !found {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "binopt_options_priced_total":
			out.optionsPriced = f
		case "binopt_options_served_total":
			out.optionsServed = f
		case "binopt_options_per_sec_window":
			out.windowRate = f
		case "binopt_modelled_joules_total":
			out.joules = f
		case "binopt_cache_generation":
			out.cacheGen = f
		case "binopt_cache_hits_total":
			out.cacheHits = f
		}
	}
	out.ok = sc.Err() == nil
	return out
}

// renderMetrics produces the router's Prometheus-style text exposition:
// router counters, ring-ownership gauges, per-node liveness, and the
// fleet roll-up — summed serving rate and fleet-level joules per option,
// the figure the paper's energy argument scales from one board to a
// rack of them.
func (rt *Router) renderMetrics(ctx context.Context) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("binopt_router_requests_total %d\n", rt.metrics.requests.Load())
	w("binopt_router_options_total %d\n", rt.metrics.options.Load())
	w("binopt_router_hedges_total %d\n", rt.metrics.hedges.Load())
	w("binopt_router_hedge_wins_total %d\n", rt.metrics.hedgeWins.Load())
	w("binopt_router_failovers_total %d\n", rt.metrics.failovers.Load())
	w("binopt_router_route_errors_total %d\n", rt.metrics.routeErrors.Load())
	w("binopt_router_invalidations_total %d\n", rt.metrics.invalidations.Load())
	w("binopt_router_scenario_requests_total %d\n", rt.metrics.scenarioReqs.Load())
	w("binopt_router_scenario_shards_total %d\n", rt.metrics.scenarioShards.Load())
	w("binopt_router_scenario_failovers_total %d\n", rt.metrics.scenarioFailovers.Load())
	w("binopt_fleet_cache_generation %d\n", rt.gen.Load())

	// Per-node router view: placement share, liveness, breaker state,
	// forward traffic.
	own := rt.ring.Ownership()
	names := rt.ring.Nodes()
	for _, name := range names {
		m := rt.members[name]
		up := 0
		if m.up.Load() {
			up = 1
		}
		_, stCode := m.breaker.State()
		w("binopt_ring_ownership{node=%q} %.6f\n", name, own[name])
		w("binopt_node_up{node=%q} %d\n", name, up)
		w("binopt_node_breaker_state{node=%q} %d\n", name, stCode)
		w("binopt_node_breaker_opens_total{node=%q} %d\n", name, m.breaker.Opens())
		w("binopt_node_forwards_total{node=%q} %d\n", name, m.forwards.Load())
		w("binopt_node_forward_errors_total{node=%q} %d\n", name, m.errs.Load())
		w("binopt_node_hedge_wins_total{node=%q} %d\n", name, m.hedgeWin.Load())
	}

	// Fleet roll-up: scrape every member concurrently. A node that does
	// not answer falls back to its last good scrape, marked stale — the
	// fleet totals must not collapse because one member is mid-reboot.
	// Only a node that has never been scraped contributes nothing.
	scrapes := make([]nodeScrape, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			scrapes[i] = scrapeNode(ctx, m)
		}(i, rt.members[name])
	}
	wg.Wait()

	stale := make([]bool, len(scrapes))
	rt.metrics.scrapeMu.Lock()
	for i, s := range scrapes {
		if s.ok {
			rt.metrics.lastScrape[s.name] = s
			continue
		}
		if prev, cached := rt.metrics.lastScrape[s.name]; cached {
			scrapes[i] = prev // last good figures, reported as stale
			stale[i] = true
		}
	}
	rt.metrics.scrapeMu.Unlock()

	var (
		reached              int
		sumRate, sumJoules   float64
		sumPriced, sumServed float64
		sumHits              float64
		generations          []float64
	)
	for i, s := range scrapes {
		if !s.ok {
			// Down and never successfully scraped: nothing to fall back
			// on, so nothing to contribute.
			w("binopt_fleet_node_stale{node=%q} 1\n", s.name)
			continue
		}
		staleVal := 0
		if stale[i] {
			staleVal = 1
		} else {
			reached++
		}
		sumRate += s.windowRate
		sumJoules += s.joules
		sumPriced += s.optionsPriced
		sumServed += s.optionsServed
		sumHits += s.cacheHits
		generations = append(generations, s.cacheGen)
		w("binopt_fleet_node_stale{node=%q} %d\n", s.name, staleVal)
		w("binopt_fleet_node_options_per_sec{node=%q} %.3f\n", s.name, s.windowRate)
		w("binopt_fleet_node_joules_total{node=%q} %.6g\n", s.name, s.joules)
		w("binopt_fleet_node_cache_generation{node=%q} %g\n", s.name, s.cacheGen)
	}
	w("binopt_fleet_nodes %d\n", len(names))
	w("binopt_fleet_nodes_scraped %d\n", reached)
	w("binopt_fleet_options_per_sec %.3f\n", sumRate)
	w("binopt_fleet_options_priced_total %.0f\n", sumPriced)
	w("binopt_fleet_options_served_total %.0f\n", sumServed)
	w("binopt_fleet_cache_hits_total %.0f\n", sumHits)
	w("binopt_fleet_modelled_joules_total %.6g\n", sumJoules)
	jpo := 0.0
	if sumPriced > 0 {
		jpo = sumJoules / sumPriced
	}
	w("binopt_fleet_joules_per_option %.6g\n", jpo)
	// Convergence gauge: 1 when every reachable node agrees on the
	// cache generation — the gossip health signal.
	sort.Float64s(generations)
	converged := 1
	if len(generations) > 1 && generations[len(generations)-1]-generations[0] > 0 {
		converged = 0
	}
	w("binopt_fleet_cache_converged %d\n", converged)
	// Trace-aggregation honesty: spans a node emitted but lost to its
	// ring before the router pulled them. Nonzero means the merged
	// /debug/trace has gaps — poll it more often or enlarge node rings.
	if missed := rt.fleetTr.missedTotal(); len(missed) > 0 {
		nodes := make([]string, 0, len(missed))
		for name := range missed {
			nodes = append(nodes, name)
		}
		sort.Strings(nodes)
		for _, name := range nodes {
			w("binopt_fleet_trace_missed_total{node=%q} %d\n", name, missed[name])
		}
	}
	return b.String()
}
