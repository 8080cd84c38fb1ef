package accel

import (
	"fmt"
	"math"
	"sync"

	"binopt/internal/kernels"
	"binopt/internal/lattice"
	"binopt/internal/opencl"
	"binopt/internal/option"
	"binopt/internal/perf"
)

// maxProbeSteps caps the depth of the construction-time kernel probe.
// The simulated runtime executes kernel IV.B with a goroutine per
// work-item and two real barriers per backward step, so a full-depth
// probe would cost seconds per engine; a few hundred steps already
// exercises every code path (params packing, leaf streaming, local
// memory, barriers, readback) while staying in the low milliseconds.
const maxProbeSteps = 256

// Engine is an executable pricing engine for one platform: the real
// kernel verified on the platform's simulated OpenCL device at
// construction, then served through the bit-identical host realisation
// of the same arithmetic, with every priced option accounted against the
// platform's modelled substrate activity (opencl.Counters) and energy.
//
// The two-phase design preserves the repository's exactness guarantee at
// serving throughput: kernel IV.B with host-computed double-precision
// leaves is proven bit-for-bit equal to the host lattice engine (the
// kernels package integration tests, re-checked here on every
// construction), so the host path IS the device arithmetic — only the
// clock is modelled, exactly as in the perf estimates.
type Engine struct {
	desc  Description
	est   perf.Estimate
	steps int
	host  *lattice.Engine
	jpo   float64 // modelled joules per option

	// perOption is the modelled substrate activity of pricing one option
	// at serving depth, calibrated from the construction probe. perQuad
	// is the activity of one interleaved quad group (four options through
	// one shared sweep): control costs are paid once, data costs four
	// times — see quadGroupCounters.
	perOption opencl.Counters
	perQuad   opencl.Counters

	// spo and devPlan model the device clock: seconds per option from
	// the estimate, decomposed into the option's command schedule.
	spo     float64
	devPlan devCommandPlan

	mu       sync.Mutex
	totals   opencl.Counters
	priced   int64
	devClock float64 // modelled device-busy seconds accumulated

	// fault, when armed via SetFaultHook, is consulted before every
	// pricing; a non-nil return aborts the call with that error and
	// accounts nothing. It is how the fault injector (internal/faults)
	// makes the simulated substrate misbehave on demand.
	hookMu sync.RWMutex
	fault  func() error
}

// SetFaultHook arms (or, with nil, disarms) the engine's fault hook.
// Safe to call while the engine is serving; in-flight pricings keep the
// hook state they started with.
func (e *Engine) SetFaultHook(h func() error) {
	e.hookMu.Lock()
	e.fault = h
	e.hookMu.Unlock()
}

// faultCheck runs the armed hook, if any. The hook itself may sleep
// (latency-spike and stuck-shard profiles), so it runs outside the
// accounting lock.
func (e *Engine) faultCheck() error {
	e.hookMu.RLock()
	h := e.fault
	e.hookMu.RUnlock()
	if h == nil {
		return nil
	}
	return h()
}

// probeChain is the construction-time verification batch: the styles and
// rights the kernels branch on.
func probeChain() []option.Option {
	return []option.Option{
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: option.Call, Style: option.European, Spot: 100, Strike: 95, Rate: 0.05, Div: 0.01, Sigma: 0.3, T: 1},
		{Right: option.Call, Style: option.American, Spot: 80, Strike: 100, Rate: 0.02, Div: 0.04, Sigma: 0.4, T: 2},
	}
}

// probeDepth picks the largest affordable probe depth the device can run
// kernel IV.B at: one work-item per tree row, rows*8 bytes of local
// memory per work-group.
func probeDepth(info opencl.DeviceInfo, steps int) int {
	p := steps
	if p > maxProbeSteps {
		p = maxProbeSteps
	}
	if m := info.MaxWorkGroupSize; m > 0 && p > m-1 {
		p = m - 1
	}
	if lb := info.LocalMemBytes; lb > 0 {
		if rows := int(lb/8) - 1; p > rows {
			p = rows
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// newKernelEngine builds an engine whose substrate is kernel IV.B on the
// platform's OpenCL device: it runs the probe batch through the real
// runtime, asserts bit-for-bit parity with the host lattice, and
// calibrates the per-option counters from the metered run.
func newKernelEngine(desc Description, est perf.Estimate, steps int) (*Engine, error) {
	host, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	probe := probeDepth(desc.OpenCL, steps)
	ctx, err := opencl.NewContext(&opencl.Device{Info: desc.OpenCL})
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	chain := probeChain()
	res, err := kernels.RunIVB(ctx, chain, kernels.IVBConfig{
		Steps:        probe,
		Precision:    kernels.Double,
		LeavesOnHost: true,
	})
	if err != nil {
		return nil, fmt.Errorf("accel: %s: probe kernel: %w", desc.Name, err)
	}
	ref, err := lattice.NewEngine(probe)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	for i, o := range chain {
		want, err := ref.Price(o)
		if err != nil {
			return nil, fmt.Errorf("accel: %s: probe reference: %w", desc.Name, err)
		}
		//binopt:ignore floateq the probe asserts bit-exact kernel/host parity (the §IV invariant), not numerical closeness
		if got := res.Prices[i]; got != want {
			return nil, fmt.Errorf("accel: %s: kernel/host parity violation at probe depth %d, option %d: device %v (%#x) vs host %v (%#x)",
				desc.Name, probe, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if err := verifyQuadParity(desc.Name, steps); err != nil {
		return nil, err
	}
	perOpt := scaleProbeCounters(res.Counters, len(chain), probe, steps)
	return &Engine{
		desc:      desc,
		est:       est,
		steps:     steps,
		host:      host,
		jpo:       joulesPerOption(est),
		perOption: perOpt,
		perQuad:   quadGroupCounters(perOpt),
		spo:       secondsPerOption(est),
		devPlan:   newDevCommandPlan(perOpt),
	}, nil
}

// newHostEngine builds the CPU reference engine: no OpenCL substrate,
// the host lattice is the device. Its modelled activity is the
// arithmetic alone.
func newHostEngine(desc Description, est perf.Estimate, steps int) (*Engine, error) {
	host, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	if err := verifyQuadParity(desc.Name, steps); err != nil {
		return nil, err
	}
	const flopsPerNode = 6
	perOpt := opencl.Counters{Flops: nodesFor(steps) * flopsPerNode}
	return &Engine{
		desc:      desc,
		est:       est,
		steps:     steps,
		host:      host,
		jpo:       joulesPerOption(est),
		perOption: perOpt,
		perQuad:   quadGroupCounters(perOpt),
		spo:       secondsPerOption(est),
		devPlan:   newDevCommandPlan(perOpt),
	}, nil
}

// verifyQuadParity extends the construction-time parity guarantee to
// the interleaved batch path: the quad sweep must reproduce the scalar
// host lattice bit for bit on two probe loads before the engine is
// allowed to serve batches through it — the mixed-right probe chain,
// which sweeps the full triangle, and an all-put quad, which bounds its
// sweep by the zero wedge. Depth is capped like the kernel probe; the
// quad kernels have no depth-dependent branches, so a few hundred steps
// exercise every path.
func verifyQuadParity(name string, steps int) error {
	depth := steps
	if depth > maxProbeSteps {
		depth = maxProbeSteps
	}
	ref, err := lattice.NewEngine(depth)
	if err != nil {
		return fmt.Errorf("accel: %s: quad probe: %w", name, err)
	}
	qp := ref.NewQuadPlan()
	for _, chain := range [][]option.Option{probeChain(), wedgeProbe()} {
		if err := qp.Load(chain); err != nil {
			return fmt.Errorf("accel: %s: quad probe: %w", name, err)
		}
		got := qp.Exec()
		for i, o := range chain {
			want, err := ref.Price(o)
			if err != nil {
				return fmt.Errorf("accel: %s: quad probe reference: %w", name, err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				return fmt.Errorf("accel: %s: quad/scalar parity violation (probe depth %d, %v): quad %v (%#x) vs scalar %v (%#x)",
					name, depth, o, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	return nil
}

// wedgeProbe is the quad probe's all-put load: an out-of-the-money
// American put and a European put. Both top leaves, S·u^n >= S·e^(σ√T),
// are out of the money at any depth, so the quad's zero wedge is never
// empty.
func wedgeProbe() []option.Option {
	return []option.Option{
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 90, Rate: 0.03, Sigma: 0.25, T: 0.75},
		{Right: option.Put, Style: option.European, Spot: 100, Strike: 110, Rate: 0.02, Div: 0.01, Sigma: 0.3, T: 1},
	}
}

// quadGroupCounters models one interleaved quad group from the
// per-option activity: the shared sweep launches one kernel over one
// set of work-items and crosses each barrier once for all four lanes
// (control costs ×1), while every node touches four lane values and
// performs four lanes of arithmetic (data costs ×4). The result
// readback is one transfer carrying four prices.
func quadGroupCounters(per opencl.Counters) opencl.Counters {
	return opencl.Counters{
		Kernels:        per.Kernels,
		KernelLaunches: per.KernelLaunches,
		WorkGroups:     per.WorkGroups,
		WorkItems:      per.WorkItems,
		Barriers:       per.Barriers,
		HostReads:      per.HostReads,
		HostTransfers:  per.HostTransfers,
		GlobalReads:    4 * per.GlobalReads,
		GlobalWrites:   4 * per.GlobalWrites,
		LocalReads:     4 * per.LocalReads,
		LocalWrites:    4 * per.LocalWrites,
		Flops:          4 * per.Flops,
		HostWrites:     4 * per.HostWrites,
	}
}

func joulesPerOption(est perf.Estimate) float64 {
	if est.OptionsPerSec <= 0 {
		return 0
	}
	return est.PowerWatts / est.OptionsPerSec
}

func nodesFor(steps int) int64 {
	n := int64(steps)
	return n * (n + 1) / 2
}

// scaleProbeCounters converts the metered activity of the probe batch
// into the modelled per-option activity at serving depth. Quantities
// proportional to tree nodes (arithmetic, local traffic, barriers) scale
// by the node ratio; quantities proportional to tree rows (work-items,
// parameter/leaf traffic) scale by the row ratio; per-option fixed costs
// (result readback, launches) carry over unscaled.
func scaleProbeCounters(c opencl.Counters, batch, probe, steps int) opencl.Counters {
	nodeR := float64(nodesFor(steps)) / float64(nodesFor(probe))
	rowR := float64(steps+1) / float64(probe+1)
	per := func(v int64, ratio float64) int64 {
		return int64(math.Round(float64(v) / float64(batch) * ratio))
	}
	return opencl.Counters{
		Kernels:        per(c.Kernels, 1),
		KernelLaunches: per(c.KernelLaunches, 1),
		WorkGroups:     per(c.WorkGroups, 1),
		WorkItems:      per(c.WorkItems, rowR),
		GlobalReads:    per(c.GlobalReads, rowR),
		GlobalWrites:   per(c.GlobalWrites, 1),
		LocalReads:     per(c.LocalReads, nodeR),
		LocalWrites:    per(c.LocalWrites, nodeR),
		Flops:          per(c.Flops, nodeR),
		Barriers:       per(c.Barriers, nodeR),
		HostWrites:     per(c.HostWrites, rowR),
		HostReads:      per(c.HostReads, 1),
		HostTransfers:  per(c.HostTransfers, 1),
	}
}

// Describe returns the owning platform's description.
func (e *Engine) Describe() Description { return e.desc }

// Estimate returns the modelled throughput/power row the engine was
// built against.
func (e *Engine) Estimate() perf.Estimate { return e.est }

// Steps reports the serving tree depth.
func (e *Engine) Steps() int { return e.steps }

// Price prices one option and accounts its modelled substrate activity.
// An armed fault hook is consulted first; its error fails the call with
// no accounting, exactly as a device-side launch failure would.
func (e *Engine) Price(o option.Option) (float64, error) {
	if err := e.faultCheck(); err != nil {
		return 0, err
	}
	p, err := e.host.Price(o)
	if err != nil {
		return 0, err
	}
	e.book(e.perOption, 1)
	return p, nil
}

// PriceUnbooked prices one option on the engine's serving arithmetic
// and books nothing: no counters, device clock or energy, and no fault
// hook draw. It is for checks of the engine itself, such as a server's
// start-up parity probe, which must not show up as served work.
func (e *Engine) PriceUnbooked(o option.Option) (float64, error) { return e.host.Price(o) }

// PriceBatch prices a batch (workers <= 0 uses GOMAXPROCS) and accounts
// its modelled substrate activity. The fault hook is consulted once per
// batch — the batch is one modelled device submission. The host lattice
// routes the batch through quad-interleaved sweeps, full or partly
// filled, so the accounting mirrors the dispatch: every group of up to
// four options books one shared-sweep quad group.
func (e *Engine) PriceBatch(opts []option.Option, workers int) ([]float64, error) {
	prices, _, err := e.priceBatch(opts, workers)
	return prices, err
}

// PriceBatchTraced is PriceBatch plus the submission's modelled device
// timeline: the interval the whole batch occupied on this platform's
// virtual device clock, decomposed into the commands the host program
// would have enqueued for it. The telemetry layer renders it as the
// device lane of the trace.
func (e *Engine) PriceBatchTraced(opts []option.Option, workers int) ([]float64, DeviceTrace, error) {
	prices, start, err := e.priceBatch(opts, workers)
	if err != nil {
		return nil, DeviceTrace{}, err
	}
	dt := e.devPlan.trace(e.desc.Name, start, float64(len(opts))*e.spo)
	dt.Options, dt.QuadGroups = len(opts), quadGroups(len(opts))
	return prices, dt, nil
}

// priceBatch prices and accounts one batch submission, returning the
// device-clock position the submission started at.
func (e *Engine) priceBatch(opts []option.Option, workers int) ([]float64, float64, error) {
	if err := e.faultCheck(); err != nil {
		return nil, 0, err
	}
	prices, err := e.host.PriceBatch(opts, workers)
	if err != nil {
		return nil, 0, err
	}
	return prices, e.accountBatch(len(opts)), nil
}

// PriceAndGreeksBatch prices a batch with full sensitivities through
// the host's quad-lane Greeks path: every position's base, bump and —
// off CRR — theta lanes pack into quad groups like any PriceBatch, so
// the batch books through the same accountBatch with the number of
// lanes the host priced (GreeksLanes). The fault hook is consulted once
// per batch, like PriceBatch.
func (e *Engine) PriceAndGreeksBatch(opts []option.Option, workers int) ([]float64, []lattice.Greeks, error) {
	if err := e.faultCheck(); err != nil {
		return nil, nil, err
	}
	prices, greeks, err := e.host.PriceAndGreeksBatch(opts, workers)
	if err != nil {
		return nil, nil, err
	}
	e.accountBatch(e.GreeksLanes(len(opts)))
	return prices, greeks, nil
}

// GreeksLanes reports how many contract evaluations PriceAndGreeksBatch
// prices and books for the given number of positions.
func (e *Engine) GreeksLanes(positions int) int { return e.host.GreeksLanes(positions) }

// accountBatch books n options priced through the quad-interleaved
// batch path: every group of up to four options accumulates perQuad —
// a partly filled group still runs the whole shared sweep. The device
// clock and modelled energy remain per-option — they model the paper's
// measured device, which the interleaving does not change. It returns
// the device-clock position the batch started at.
func (e *Engine) accountBatch(n int) float64 {
	var add opencl.Counters
	for i := 0; i < quadGroups(n); i++ {
		add.Add(e.perQuad)
	}
	return e.book(add, n)
}

// quadGroups is the number of quad groups n options occupy.
func quadGroups(n int) int { return (n + 3) / 4 }

// book commits accumulated counters plus n options of device-clock
// advance, returning the clock position the work started at.
func (e *Engine) book(add opencl.Counters, n int) float64 {
	e.mu.Lock()
	e.totals.Add(add)
	e.priced += int64(n)
	start := e.devClock
	e.devClock += float64(n) * e.spo
	e.mu.Unlock()
	return start
}

// Counters returns the accumulated modelled substrate activity.
func (e *Engine) Counters() opencl.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totals
}

// PricedOptions reports how many options the engine has priced.
func (e *Engine) PricedOptions() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.priced
}

// ModelledJoulesPerOption is the platform's modelled energy per priced
// option (power / throughput from the estimate).
func (e *Engine) ModelledJoulesPerOption() float64 { return e.jpo }

// ModelledDeviceSeconds is the total modelled device-busy time of
// everything priced: the device clock's current position.
func (e *Engine) ModelledDeviceSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.devClock
}

// ModelledJoules is the total modelled energy of everything priced.
func (e *Engine) ModelledJoules() float64 {
	return float64(e.PricedOptions()) * e.jpo
}
