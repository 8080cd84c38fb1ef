package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/option"
	"binopt/internal/scenario"
	"binopt/internal/serve"
)

// request is one generated operation. Price requests carry their
// contracts, scenario requests their resolved book and shocks, so the
// answers can be checked after timing.
type request struct {
	id   int
	path string // "/v1/price", "/v1/scenarios" or "/v1/invalidate"
	body []byte
	opts []option.Option

	book      []scenario.Position
	shocks    []scenario.Shock
	quantiles []float64

	// due is the open-loop send time, as an offset from the start.
	due time.Duration
}

// result is what one call into a layer returned.
type result struct {
	err       error // transport failure, non-2xx status or layer error
	options   int   // contracts answered
	evals     int64 // contract evaluations a scenario answer reports
	prices    []float64
	scen      *serve.ScenarioResponse
	timing    map[string]float64   // Server-Timing, by metric name
	phases    serve.PhaseBreakdown // in-process serve calls only
	reqBytes  int
	respBytes int
}

// sender makes one call into a layer.
type sender func(ctx context.Context, r *request) result

// record is one timed call.
type record struct {
	req   *request
	res   result
	due   time.Time // open loop: when the request was due; closed: = start
	start time.Time
	end   time.Time
}

// latency is the request's time as its user sees it: from when it was
// due, so a stalled generator charges the wait to every request behind
// it.
func (r record) latency() time.Duration { return r.end.Sub(r.due) }

// lateness is how long after its due time the request was sent.
func (r record) lateness() time.Duration { return r.start.Sub(r.due) }

// closedLoop runs clients callers that each send their next request
// only when the previous one answered, until dur has passed. Requests
// in flight at the deadline complete and count.
func closedLoop(ctx context.Context, clients int, dur time.Duration, next func() *request, send sender) []record {
	deadline := time.Now().Add(dur)
	var (
		mu  sync.Mutex
		out []record
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := next()
				start := time.Now()
				res := send(ctx, r)
				mine = append(mine, record{req: r, res: res, due: start, start: start, end: time.Now()})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// openLoop sends each request of sched (ascending due offsets) at its
// due time, whether or not earlier requests answered, through workers
// senders. When every worker is busy, due requests wait in order; that
// wait is the generator's lateness, and it counts in their latency.
func openLoop(ctx context.Context, workers int, sched []*request, send sender) []record {
	out := make([]record, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				r := sched[i]
				due := t0.Add(r.due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				start := time.Now()
				res := send(ctx, r)
				out[i] = record{req: r, res: res, due: due, start: start, end: time.Now()}
			}
		}()
	}
	wg.Wait()
	// A cancelled loop leaves the requests it never sent as zero records.
	ran := out[:0]
	for _, r := range out {
		if r.req != nil {
			ran = append(ran, r)
		}
	}
	return ran
}

// maxBacklog is the most requests that were due but not yet sent at
// any one time.
func maxBacklog(recs []record) int {
	dues := make([]time.Time, len(recs))
	starts := make([]time.Time, len(recs))
	for i, r := range recs {
		dues[i], starts[i] = r.due, r.start
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i].Before(dues[j]) })
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	most, sent := 0, 0
	for i, d := range dues {
		for sent < len(starts) && !starts[sent].After(d) {
			sent++
		}
		if waiting := i + 1 - sent; waiting > most {
			most = waiting
		}
	}
	return most
}

// requestTimeout bounds one call, so a wedged server fails the run's
// requests instead of hanging the benchmark.
const requestTimeout = 30 * time.Second

// newHTTPClient returns the load generator's client: at most conns
// connections to the target, so the generator never opens more
// connections than the box has cores.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// httpSender posts requests to base and decodes the answers.
func httpSender(client *http.Client, base string) sender {
	return func(ctx context.Context, r *request) result {
		res := result{reqBytes: len(r.body)}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			res.err = err
			return res
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			res.err = err
			return res
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.respBytes = len(body)
		if err != nil {
			res.err = err
			return res
		}
		if resp.StatusCode/100 != 2 {
			res.err = fmt.Errorf("%s: HTTP %d: %s", r.path, resp.StatusCode, strings.TrimSpace(string(body)))
			return res
		}
		res.timing = parseServerTiming(resp.Header.Get("Server-Timing"))
		switch r.path {
		case "/v1/price":
			var pr serve.PriceResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				res.err = fmt.Errorf("decoding price response: %w", err)
				return res
			}
			res.setPrices(r, pr.Results)
		case "/v1/scenarios":
			var sr serve.ScenarioResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				res.err = fmt.Errorf("decoding scenario response: %w", err)
				return res
			}
			res.scen = &sr
			res.evals = sr.Evaluations
		}
		return res
	}
}

// setPrices records a price answer, checking it answers every contract.
func (res *result) setPrices(r *request, rs []serve.Result) {
	if len(rs) != len(r.opts) {
		res.err = fmt.Errorf("price response has %d results for %d contracts", len(rs), len(r.opts))
		return
	}
	res.prices = make([]float64, len(rs))
	for i, x := range rs {
		res.prices[i] = x.Price
	}
	res.options = len(rs)
}

// parseServerTiming reads a Server-Timing header into metric → dur
// value. It follows the header grammar (entries split on ",",
// parameters on ";", dur anywhere among them) and skips entries it
// cannot read, so it serves both the price path's phases and the
// scenario path's expand/price/aggregate split.
func parseServerTiming(h string) map[string]float64 {
	if h == "" {
		return nil
	}
	out := make(map[string]float64)
	for _, entry := range strings.Split(h, ",") {
		params := strings.Split(entry, ";")
		name := strings.TrimSpace(params[0])
		if name == "" {
			continue
		}
		for _, p := range params[1:] {
			k, v, ok := strings.Cut(p, "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				out[name] = f
			}
			break
		}
	}
	return out
}

// scrapeMetrics fetches a /metrics page and parses it.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(ctx, client, base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: HTTP %d", base, status)
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics reads a Prometheus-style text exposition into series →
// value, where a series is the metric name with its label set exactly
// as written. Comment lines and exemplars are skipped, and so is any
// line whose value does not parse.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}
