package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/scenario"
)

// sampleEvery is the re-pricing sample rate: one distinct contract in
// this many is recomputed on the scalar reference.
const sampleEvery = 32

// scenarioSampleEvery is the rate at which whole scenario answers are
// re-priced. Re-pricing one costs its book three times over on the
// scalar reference, so a denser sample would outlast the timed run.
const scenarioSampleEvery = 8

// checker verifies answers after timing, off the clock. Every contract
// answered more than once must get the same bits each time; a seeded
// 1-in-32 sample of the distinct contracts served is re-priced bit for
// bit on lattice.Engine.Price; every scenario answer's P&L and VaR/ES
// are recomputed from its own values, and a seeded 1-in-8 sample of
// answers has two scenarios and the base value re-priced too.
type checker struct {
	seed  int64
	seen  map[option.Option]float64
	scen  []record
	wrong []string
}

func newChecker(seed int64) *checker {
	return &checker{seed: seed, seen: make(map[option.Option]float64)}
}

// observe books the answers of the successful calls among recs.
func (c *checker) observe(recs []record) {
	for _, rec := range recs {
		if rec.res.err != nil {
			continue
		}
		if rec.res.scen != nil {
			c.scen = append(c.scen, rec)
		}
		for i, p := range rec.res.prices {
			o := rec.req.opts[i]
			prev, ok := c.seen[o]
			if !ok {
				c.seen[o] = p
				continue
			}
			if math.Float64bits(prev) != math.Float64bits(p) {
				c.wrong = append(c.wrong, fmt.Sprintf("contract %+v answered %v and later %v", o, prev, p))
			}
		}
	}
}

// sampled reports whether the contract falls in this seed's re-pricing
// sample. It hashes the contract, so the same contract is in or out of
// the sample no matter where in the stream it was served.
func (c *checker) sampled(o option.Option) bool {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{uint64(c.seed), uint64(o.Right), uint64(o.Style),
		math.Float64bits(o.Spot), math.Float64bits(o.Strike), math.Float64bits(o.Rate),
		math.Float64bits(o.Div), math.Float64bits(o.Sigma), math.Float64bits(o.T)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()%sampleEvery == 0
}

// verify re-prices the samples and returns every mismatch found, those
// booked while observing included.
func (c *checker) verify() ([]string, error) {
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, err
	}
	type job struct {
		o    option.Option
		want float64
	}
	var jobs []job
	for o, p := range c.seen {
		if c.sampled(o) {
			jobs = append(jobs, job{o, p})
		}
	}
	wrong := append([]string(nil), c.wrong...)
	var mu sync.Mutex
	parallel(len(jobs), func(i int) {
		got, err := eng.Price(jobs[i].o)
		if err == nil && math.Float64bits(got) == math.Float64bits(jobs[i].want) {
			return
		}
		mu.Lock()
		wrong = append(wrong, fmt.Sprintf("contract %+v: served %v, reference %v (err %v)", jobs[i].o, jobs[i].want, got, err))
		mu.Unlock()
	})

	parallel(len(c.scen), func(k int) {
		full := k%scenarioSampleEvery == int(uint64(c.seed)%scenarioSampleEvery)
		if msg := checkScenario(eng, c.scen[k].req, c.scen[k].res, full, c.seed); msg != "" {
			mu.Lock()
			wrong = append(wrong, msg)
			mu.Unlock()
		}
	})
	return wrong, nil
}

// checkScenario checks one scenario answer: its P&L is its values minus
// its base value, its VaR/ES follow from its P&L, and (when full) two
// seeded scenarios and the base value re-price bit for bit on the
// scalar reference.
func checkScenario(eng *lattice.Engine, r *request, res result, full bool, seed int64) string {
	sr := res.scen
	if len(sr.Scenarios) != len(r.shocks) {
		return fmt.Sprintf("scenario request %d: %d scenarios answered for %d shocks", r.id, len(sr.Scenarios), len(r.shocks))
	}
	pnl := make([]float64, len(sr.Scenarios))
	for i, s := range sr.Scenarios {
		if math.Float64bits(s.PnL) != math.Float64bits(s.Value-sr.BaseValue) {
			return fmt.Sprintf("scenario request %d: scenario %d P&L %v != value %v - base %v", r.id, i, s.PnL, s.Value, sr.BaseValue)
		}
		pnl[i] = s.PnL
	}
	risk, err := scenario.RiskMeasures(pnl, r.quantiles)
	if err != nil {
		return fmt.Sprintf("scenario request %d: %v", r.id, err)
	}
	if len(risk) != len(sr.Risk) {
		return fmt.Sprintf("scenario request %d: %d risk measures, want %d", r.id, len(sr.Risk), len(risk))
	}
	for i := range risk {
		if risk[i] != sr.Risk[i] {
			return fmt.Sprintf("scenario request %d: risk %+v, recomputed %+v", r.id, sr.Risk[i], risk[i])
		}
	}
	if !full {
		return ""
	}
	value := func(shock *scenario.Shock) (float64, error) {
		var v float64
		for _, pos := range r.book {
			o := pos.Option
			if shock != nil {
				o = shock.Apply(o)
			}
			p, err := eng.Price(o)
			if err != nil {
				return 0, err
			}
			v += pos.Quantity * p
		}
		return v, nil
	}
	base, err := value(nil)
	if err != nil || math.Float64bits(base) != math.Float64bits(sr.BaseValue) {
		return fmt.Sprintf("scenario request %d: base value %v, reference %v (err %v)", r.id, sr.BaseValue, base, err)
	}
	first := int(uint64(seed+int64(r.id)) % uint64(len(r.shocks)))
	for _, i := range []int{first, (first + len(r.shocks)/2) % len(r.shocks)} {
		want, err := value(&r.shocks[i])
		if err != nil || math.Float64bits(want) != math.Float64bits(sr.Scenarios[i].Value) {
			return fmt.Sprintf("scenario request %d: scenario %d value %v, reference %v (err %v)", r.id, i, sr.Scenarios[i].Value, want, err)
		}
	}
	return ""
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
