package scenario

import (
	"fmt"

	"binopt/internal/lattice"
	"binopt/internal/option"
)

// Pricer prices contract batches bit-identically to the scalar
// reference. *lattice.Engine and *accel.Engine both satisfy it; the
// serving tier hands the engine an accelerator so every revaluation
// rides the quad-interleaved batch path with its joules booked.
type Pricer interface {
	PriceBatch(opts []option.Option, workers int) ([]float64, error)
	Steps() int
}

// GreeksPricer additionally prices with full sensitivities through the
// quad-lane Greeks path, and reports how many contract evaluations that
// costs. When the engine's Pricer implements it, a revaluation report
// carries the book's net Greeks.
type GreeksPricer interface {
	Pricer
	PriceAndGreeksBatch(opts []option.Option, workers int) ([]float64, []lattice.Greeks, error)
	GreeksLanes(positions int) int
}

// Position is a signed holding of one contract (negative quantity =
// short).
type Position struct {
	Option   option.Option
	Quantity float64
}

// Request is one revaluation: a book, the shocked market states to
// revalue it under, and the confidence levels for the risk measures.
type Request struct {
	Book      []Position
	Shocks    []Shock
	Quantiles []float64 // confidence levels in (0,1); nil = DefaultQuantiles
	// SkipGreeks suppresses the net-Greeks pass. The fleet router sets
	// it on all but one shard so the book's sensitivities are computed
	// exactly once per request.
	SkipGreeks bool
}

// DefaultQuantiles are the confidence levels a request gets when it
// names none.
var DefaultQuantiles = []float64{0.95, 0.99}

// ScenarioValue is one scenario's revaluation of the book.
type ScenarioValue struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	PnL   float64 `json:"pnl"`
}

// Report is the aggregated revaluation: base value, net Greeks,
// per-scenario values and P&L, and the risk quantiles over the P&L
// distribution. Evaluations counts contract evaluations on the pricing
// substrate (a Greeks position books every lane the pricer reports:
// five under CRR, six otherwise).
type Report struct {
	BaseValue   float64         `json:"base_value"`
	Greeks      lattice.Greeks  `json:"greeks"`
	HasGreeks   bool            `json:"has_greeks"`
	Scenarios   []ScenarioValue `json:"scenarios"`
	Risk        []RiskMeasure   `json:"risk"`
	Evaluations int64           `json:"evaluations"`
}

// defaultChunk bounds one PriceBatch submission: scenarios are expanded
// and priced in micro-batches of about this many contracts, so a
// million-evaluation request streams through bounded scratch at
// production batch sizes instead of materialising the whole cross
// product.
const defaultChunk = 4096

// Engine revalues portfolios under scenario sets. It holds no state
// between calls and is safe for concurrent use as long as its Pricer
// is.
type Engine struct {
	pricer  Pricer
	workers int
	chunk   int
}

// New builds a revaluation engine over the pricer. workers bounds each
// batch submission's parallelism (<= 0 uses the pricer's default).
func New(p Pricer, workers int) *Engine {
	return &Engine{pricer: p, workers: workers, chunk: defaultChunk}
}

// WithChunk overrides the per-submission contract budget (testing and
// tuning hook).
func (e *Engine) WithChunk(contracts int) *Engine {
	c := *e
	if contracts > 0 {
		c.chunk = contracts
	}
	return &c
}

// Revalue expands book × shocks, prices every shocked contract through
// the batch path, and aggregates the report. An empty book is a valid
// request and values to the zero report — every scenario prices to
// zero P&L — matching ValuePortfolio's empty-book convention. Every
// per-scenario value is bit-identical to revaluing that scenario's
// contracts one at a time through the scalar reference, so reports are
// reproducible across solo, sharded and serial execution.
func (e *Engine) Revalue(req Request) (Report, error) {
	for i, s := range req.Shocks {
		if err := s.Validate(); err != nil {
			return Report{}, fmt.Errorf("shock %d: %w", i, err)
		}
	}
	quantiles := req.Quantiles
	if len(quantiles) == 0 {
		quantiles = DefaultQuantiles
	}

	rep := Report{Scenarios: make([]ScenarioValue, len(req.Shocks))}
	for i, s := range req.Shocks {
		label := s.Label
		if label == "" {
			label = s.defaultLabel()
		}
		rep.Scenarios[i] = ScenarioValue{Label: label}
	}

	if len(req.Book) > 0 {
		if err := e.revalueBook(req, &rep); err != nil {
			return Report{}, err
		}
	}

	pnl := make([]float64, len(rep.Scenarios))
	for i := range rep.Scenarios {
		rep.Scenarios[i].PnL = rep.Scenarios[i].Value - rep.BaseValue
		pnl[i] = rep.Scenarios[i].PnL
	}
	risk, err := RiskMeasures(pnl, quantiles)
	if err != nil {
		return Report{}, err
	}
	rep.Risk = risk
	return rep, nil
}

// revalueBook prices the base book (with Greeks when the substrate
// offers them) and then the scenario cross product in contract chunks.
func (e *Engine) revalueBook(req Request, rep *Report) error {
	book := req.Book
	baseOpts := make([]option.Option, len(book))
	for i, pos := range book {
		baseOpts[i] = pos.Option
	}

	gp, hasGreeks := e.pricer.(GreeksPricer)
	if hasGreeks && !req.SkipGreeks {
		prices, greeks, err := gp.PriceAndGreeksBatch(baseOpts, e.workers)
		if err != nil {
			return fmt.Errorf("scenario: base book: %w", err)
		}
		for i, pos := range book {
			q := pos.Quantity
			rep.BaseValue += q * prices[i]
			rep.Greeks.Delta += q * greeks[i].Delta
			rep.Greeks.Gamma += q * greeks[i].Gamma
			rep.Greeks.Theta += q * greeks[i].Theta
			rep.Greeks.Vega += q * greeks[i].Vega
			rep.Greeks.Rho += q * greeks[i].Rho
		}
		rep.HasGreeks = true
		rep.Evaluations += int64(gp.GreeksLanes(len(book)))
	} else {
		prices, err := e.pricer.PriceBatch(baseOpts, e.workers)
		if err != nil {
			return fmt.Errorf("scenario: base book: %w", err)
		}
		for i, pos := range book {
			rep.BaseValue += pos.Quantity * prices[i]
		}
		rep.Evaluations += int64(len(book))
	}

	// Scenario expansion, scenario-major so one scenario's contracts are
	// contiguous in the batch: perCall scenarios per submission keeps
	// each PriceBatch near the chunk budget.
	perCall := e.chunk / len(book)
	if perCall < 1 {
		perCall = 1
	}
	opts := make([]option.Option, 0, perCall*len(book))
	for s0 := 0; s0 < len(req.Shocks); s0 += perCall {
		s1 := s0 + perCall
		if s1 > len(req.Shocks) {
			s1 = len(req.Shocks)
		}
		opts = opts[:0]
		for s := s0; s < s1; s++ {
			shock := req.Shocks[s]
			for _, pos := range book {
				opts = append(opts, shock.Apply(pos.Option))
			}
		}
		prices, err := e.pricer.PriceBatch(opts, e.workers)
		if err != nil {
			return fmt.Errorf("scenario: scenarios [%d,%d): %w", s0, s1, err)
		}
		for s := s0; s < s1; s++ {
			var v float64
			row := prices[(s-s0)*len(book):]
			for i, pos := range book {
				v += pos.Quantity * row[i]
			}
			rep.Scenarios[s].Value = v
		}
		rep.Evaluations += int64(len(opts))
	}
	return nil
}
