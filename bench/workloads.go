package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"binopt/internal/option"
	"binopt/internal/scenario"
	"binopt/internal/serve"
	"binopt/internal/workload"
)

// steps is the lattice depth every workload prices at: the paper's
// evaluation depth and the servers' default.
const steps = 1024

// sizes fixes how much work each request and hot set carries. The
// benchmark runs defaultSizes; the tests shrink them.
type sizes struct {
	// ChainPer is contracts per curve-cold request.
	ChainPer int
	// QuoteHot is quotes-open's primed hot set; HotShare is the chance
	// that a quoted contract comes from it rather than being new.
	QuoteHot int
	HotShare float64
	// QuoteRate is quotes-open's Poisson arrival rate, requests/s.
	QuoteRate float64
	// Tick is quotes-open's market-data invalidation interval.
	Tick time.Duration
	// Book is positions per scenario request; Grid is its shock grid.
	Book int
	Grid scenario.GridSpec
	// FleetHot is fleet-warm's primed set; FleetPer is contracts per
	// fleet-warm request.
	FleetHot int
	FleetPer int
}

func defaultSizes() sizes {
	return sizes{
		ChainPer:  10,
		QuoteHot:  16,
		HotShare:  0.9,
		QuoteRate: 100,
		Tick:      time.Second,
		Book:      12,
		Grid: scenario.GridSpec{
			Spot: scenario.Axis{From: 0.85, To: 1.15, N: 4},
			Vol:  scenario.Axis{From: 0.8, To: 1.2, N: 3},
		},
		FleetHot: 1024,
		FleetPer: 8,
	}
}

// workloadDef is one traffic mix. Its inputs are a pure function of the
// seed; the servers only ever see the generated requests.
type workloadDef struct {
	name string
	why  string
	// fleet selects a 2-node pricefleet instead of one pricesrvd.
	fleet bool
	// scenario marks a /v1/scenarios workload, whose requests bypass the
	// serve price path for the scenario engine.
	scenario bool
	// clients is the closed-loop caller count; 0 means an open loop.
	clients int
	// tail is the percentile reported as latency_tail_ms, fixed per
	// workload so runs always compare like with like. A run's clean
	// windows grow until at least ten samples lie beyond it.
	tail float64
	// inputs builds a fresh seeded input stream.
	inputs func(seed int64, sz sizes) (*inputs, error)
}

// inputs is one run's seeded request stream. prime requests warm the
// server before timing. Closed-loop workloads draw from next; open-loop
// workloads take their arrivals from schedule, and successive calls
// continue the stream (fresh cold contracts, same hot set).
type inputs struct {
	prime    []*request
	next     func() *request
	schedule func(d time.Duration) []*request
}

var workloads = []*workloadDef{
	{
		name:    "curve-cold",
		why:     "the paper's use case: fresh 2000-put vol-curve chains at 1024 steps, no cache hits, so the lattice sweep and shard workers do the work",
		clients: 2,
		tail:    90,
		inputs:  curveColdInputs,
	},
	{
		name:   "quotes-open",
		why:    "interactive quoting: Poisson arrivals of 1-4 contracts, 90% from a primed hot set, with a market-data invalidation every second; HTTP, cache and flush deadline dominate",
		tail:   90,
		inputs: quotesOpenInputs,
	},
	{
		name:     "scenario-grid",
		why:      "risk desk: 12-position books under a shock grid via /v1/scenarios, which bypasses the batcher, shard queue and result cache",
		scenario: true,
		clients:  1,
		tail:     75,
		inputs:   scenarioGridInputs,
	},
	{
		name:    "fleet-warm",
		why:     "the fabric tax: 8-contract all-hit requests through a 2-node pricefleet, so router parse/route/forward/merge and JSON dominate",
		fleet:   true,
		clients: 1,
		tail:    90,
		inputs:  fleetWarmInputs,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// subSeed derives an independent stream seed, so the hot set, the cold
// stream and the arrival process of one run never share a sequence.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

// mustJSON encodes a generated request body. The generators only build
// validated, finite contracts, so a failure is a bug in them.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding generated request: %v", err))
	}
	return b
}

func priceRequest(id int, opts []option.Option) *request {
	pr := serve.PriceRequest{Contracts: make([]serve.Contract, len(opts))}
	for i, o := range opts {
		pr.Contracts[i] = serve.FromOption(o)
	}
	return &request{id: id, path: "/v1/price", body: mustJSON(pr), opts: opts}
}

func invalidateRequest(id int) *request {
	return &request{id: id, path: "/v1/invalidate", body: []byte("{}")}
}

// primeRequests splits a hot set into 64-contract priming requests.
func primeRequests(hot []option.Option) []*request {
	var out []*request
	for at := 0; at < len(hot); at += 64 {
		end := min(at+64, len(hot))
		out = append(out, priceRequest(-1-len(out), hot[at:end]))
	}
	return out
}

// curveColdInputs streams fresh volatility-curve chains —
// workload.DefaultVolCurveSpec(seed+i) for chain i — in ChainPer-sized
// requests. Every chain has its own jittered strikes, so no contract
// repeats and the cache never hits.
func curveColdInputs(seed int64, sz sizes) (*inputs, error) {
	var (
		mu    sync.Mutex
		chain []option.Option
		nth   int64
		pos   int
		id    int
	)
	next := func() *request {
		mu.Lock()
		defer mu.Unlock()
		if pos >= len(chain) {
			c, err := workload.Chain(workload.DefaultVolCurveSpec(seed + nth))
			if err != nil {
				panic(fmt.Sprintf("bench: generating chain: %v", err))
			}
			chain, pos = c, 0
			nth++
		}
		end := min(pos+sz.ChainPer, len(chain))
		r := priceRequest(id, chain[pos:end])
		pos, id = end, id+1
		return r
	}
	return &inputs{next: next}, nil
}

// quotesOpenInputs primes a QuoteHot-contract set and schedules Poisson
// arrivals at QuoteRate, each of 1-4 workload.MixedBatch contracts, each
// drawn from the hot set with probability HotShare and otherwise never
// seen before. Every Tick an invalidation arrives, as a market-data
// update would, and the hot set has to be priced again.
func quotesOpenInputs(seed int64, sz sizes) (*inputs, error) {
	hot, err := workload.MixedBatch(subSeed(seed, 1), sz.QuoteHot)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	coldRNG := subSeed(seed, 3)
	var coldUsed int
	id := 0
	schedule := func(d time.Duration) []*request {
		type pick struct {
			due  time.Duration
			hot  []int // hot-set index, or -1 for the next cold contract
			tick bool
		}
		var picks []pick
		nextTick := sz.Tick
		var t time.Duration
		cold := 0
		for {
			t += time.Duration(rng.ExpFloat64() / sz.QuoteRate * float64(time.Second))
			for nextTick <= t && nextTick < d {
				picks = append(picks, pick{due: nextTick, tick: true})
				nextTick += sz.Tick
			}
			if t >= d {
				break
			}
			k := 1 + rng.Intn(4)
			p := pick{due: t, hot: make([]int, k)}
			for i := range p.hot {
				if rng.Float64() < sz.HotShare {
					p.hot[i] = rng.Intn(len(hot))
				} else {
					p.hot[i] = -1
					cold++
				}
			}
			picks = append(picks, p)
		}
		// One cold batch per call, offset past every contract handed out
		// before, so continued streams never repeat a cold contract.
		coldSet, err := workload.MixedBatch(coldRNG, coldUsed+cold+1)
		if err != nil {
			panic(fmt.Sprintf("bench: generating cold contracts: %v", err))
		}
		coldSet = coldSet[coldUsed:]
		coldUsed += cold
		out := make([]*request, 0, len(picks))
		ci := 0
		for _, p := range picks {
			var r *request
			if p.tick {
				r = invalidateRequest(id)
			} else {
				opts := make([]option.Option, len(p.hot))
				for i, h := range p.hot {
					if h >= 0 {
						opts[i] = hot[h]
					} else {
						opts[i] = coldSet[ci]
						ci++
					}
				}
				r = priceRequest(id, opts)
			}
			r.due = p.due
			id++
			out = append(out, r)
		}
		return out
	}
	return &inputs{prime: primeRequests(hot), schedule: schedule}, nil
}

// scenarioGridInputs builds request i as a Book-position book — the
// DefaultVolCurveSpec(seed+i) chain drawn at Book strikes across its
// moneyness range, with seeded signed quantities — under the Grid
// shocks. Every book is new, so the scenario cache never hits.
func scenarioGridInputs(seed int64, sz sizes) (*inputs, error) {
	shocks, err := sz.Grid.Shocks()
	if err != nil {
		return nil, err
	}
	quantiles := []float64{0.95, 0.99}
	var (
		mu sync.Mutex
		i  int64
	)
	next := func() *request {
		mu.Lock()
		n := i
		i++
		mu.Unlock()
		spec := workload.DefaultVolCurveSpec(seed + n)
		spec.N = sz.Book
		chain, err := workload.Chain(spec)
		if err != nil {
			panic(fmt.Sprintf("bench: generating book: %v", err))
		}
		rng := rand.New(rand.NewSource(subSeed(seed+n, 4)))
		book := make([]scenario.Position, len(chain))
		wire := make([]serve.ScenarioPosition, len(chain))
		for k, o := range chain {
			q := float64(1 + rng.Intn(10))
			if rng.Intn(2) == 0 {
				q = -q
			}
			book[k] = scenario.Position{Option: o, Quantity: q}
			wire[k] = serve.ScenarioPosition{Contract: serve.FromOption(o), Quantity: q}
		}
		grid := sz.Grid
		body := mustJSON(serve.ScenarioRequest{Portfolio: wire, Grid: &grid, Quantiles: quantiles})
		return &request{id: int(n), path: "/v1/scenarios", body: body, book: book, shocks: shocks, quantiles: quantiles}
	}
	return &inputs{next: next}, nil
}

// fleetWarmInputs primes a FleetHot-contract set through the router,
// then draws FleetPer-contract requests from it uniformly: every answer
// is a cache hit on the node that owns the contract.
func fleetWarmInputs(seed int64, sz sizes) (*inputs, error) {
	hot, err := workload.MixedBatch(subSeed(seed, 1), sz.FleetHot)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	var (
		mu sync.Mutex
		id int
	)
	next := func() *request {
		mu.Lock()
		opts := make([]option.Option, sz.FleetPer)
		for i := range opts {
			opts[i] = hot[rng.Intn(len(hot))]
		}
		n := id
		id++
		mu.Unlock()
		return priceRequest(n, opts)
	}
	return &inputs{prime: primeRequests(hot), next: next}, nil
}
