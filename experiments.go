package binopt

import (
	"fmt"
	"strings"

	"binopt/internal/accel"
	"binopt/internal/hls"
	"binopt/internal/hwmath"
	"binopt/internal/lattice"
	"binopt/internal/mathx"
	"binopt/internal/perf"
	"binopt/internal/report"
	"binopt/internal/trace"
	"binopt/internal/volatility"
	"binopt/internal/workload"
)

// fpgaFitter resolves the registry's FPGA platform as the fitting target
// for Table I, the knob sweep, and the per-row fits of Table II.
func fpgaFitter() (accel.Fitter, error) {
	p, err := accel.Get("fpga-ivb")
	if err != nil {
		return nil, err
	}
	f, ok := p.(accel.Fitter)
	if !ok {
		return nil, fmt.Errorf("binopt: platform %s does not support fitting", p.Describe().Name)
	}
	return f, nil
}

// Table1Result carries the regenerated resource-usage table (paper
// Table I).
type Table1Result struct {
	Text      string
	CSV       string
	KernelIVA hls.FitReport
	KernelIVB hls.FitReport
}

// Table1 compiles both kernels for the registry's FPGA platform with the
// paper's parallelisation knobs and renders the fitter/power summary.
func Table1() (Table1Result, error) {
	f, err := fpgaFitter()
	if err != nil {
		return Table1Result{}, err
	}
	fitA, err := f.Fit(1024, accel.KernelIVA, hls.Knobs{})
	if err != nil {
		return Table1Result{}, err
	}
	fitB, err := f.Fit(1024, accel.KernelIVB, hls.Knobs{})
	if err != nil {
		return Table1Result{}, err
	}
	chip := f.Describe().Board.Chip
	tbl := report.BuildTable1(chip.Name, chip.Registers, chip.M9K,
		chip.DSP18, chip.MemoryBits, fitA, fitB)
	return Table1Result{Text: tbl.String(), CSV: tbl.CSV(), KernelIVA: fitA, KernelIVB: fitB}, nil
}

// Table2Config scales the performance-comparison experiment. The zero
// value reproduces the paper (1024 steps) with a fast accuracy batch.
type Table2Config struct {
	// Steps is the tree depth (default 1024, the paper's choice).
	Steps int
	// RMSEOptions is the batch size used to measure each variant's RMSE
	// against the double-precision reference (default 40).
	RMSEOptions int
	// RMSESteps is the tree depth for the RMSE measurement; it defaults
	// to Steps. Accuracy runs execute full trees on the host, so tests
	// can lower it independently of the modelled throughput depth.
	RMSESteps int
	// Workers bounds RMSE-measurement concurrency (<=0: GOMAXPROCS).
	Workers int
}

func (c *Table2Config) defaults() {
	if c.Steps == 0 {
		c.Steps = 1024
	}
	if c.RMSEOptions == 0 {
		c.RMSEOptions = 40
	}
	if c.RMSESteps == 0 {
		c.RMSESteps = c.Steps
	}
}

// Table2Result carries the regenerated performance table (paper
// Table II).
type Table2Result struct {
	Text string
	CSV  string
	Rows []report.Table2Row
}

// Table2 assembles the full performance comparison: both kernels on both
// accelerators, the software reference in both precisions, measured RMSE
// per variant, and the published baselines.
func Table2(cfg Table2Config) (Table2Result, error) {
	cfg.defaults()
	fpga, err := accel.Get("fpga-ivb")
	if err != nil {
		return Table2Result{}, err
	}
	gpu, err := accel.Get("gpu-ivb")
	if err != nil {
		return Table2Result{}, err
	}
	cpu, err := accel.Get("cpu-ref")
	if err != nil {
		return Table2Result{}, err
	}
	fpgaLabel := fpga.Describe().Board.Chip.Name
	gpuLabel := gpu.Describe().GPU.Name
	cpuLabel := cpu.Describe().CPU.Name

	rmse, err := measureRMSE(cfg)
	if err != nil {
		return Table2Result{}, err
	}

	type rowSpec struct {
		kernel, platform string
		on               accel.Platform
		opts             accel.Options
		rmse             float64
	}
	specs := []rowSpec{
		{"IV.A", fpgaLabel, fpga, accel.Options{Kernel: accel.KernelIVA, FullReadback: true}, rmse.hostLeavesDouble},
		{"IV.A", gpuLabel, gpu, accel.Options{Kernel: accel.KernelIVA, FullReadback: true}, rmse.hostLeavesDouble},
		{"IV.B", fpgaLabel, fpga, accel.Options{}, rmse.flawedPowDouble},
		{"IV.B", gpuLabel, gpu, accel.Options{Single: true}, rmse.single},
		{"IV.B", gpuLabel, gpu, accel.Options{}, rmse.hostLeavesDouble},
		{"reference", cpuLabel, cpu, accel.Options{Single: true}, rmse.single},
		{"reference", cpuLabel, cpu, accel.Options{}, 0},
	}

	var rows []report.Table2Row
	for _, s := range specs {
		est, err := s.on.Estimate(cfg.Steps, s.opts)
		if err != nil {
			return Table2Result{}, fmt.Errorf("binopt: table 2 row %s/%s: %w", s.kernel, s.platform, err)
		}
		rows = append(rows, report.Table2Row{
			Kernel:    s.kernel,
			Platform:  s.platform,
			Precision: est.Precision,
			Estimate:  est,
			RMSE:      s.rmse,
			RMSEKnown: true,
		})
	}
	tbl := report.BuildTable2(rows, report.PublishedBaselines())
	return Table2Result{Text: tbl.String(), CSV: tbl.CSV(), Rows: rows}, nil
}

// rmseSet holds the measured accuracy of each arithmetic variant against
// the double-precision reference.
type rmseSet struct {
	hostLeavesDouble float64 // kernel IV.A and accurate IV.B builds
	flawedPowDouble  float64 // kernel IV.B on the FPGA (Power operator)
	single           float64 // any single-precision build
}

// measureRMSE runs the lattice engines (bit-identical to the kernels, as
// the integration tests prove) over a mixed batch and compares against
// the reference.
func measureRMSE(cfg Table2Config) (rmseSet, error) {
	opts, err := workload.MixedBatch(2014, cfg.RMSEOptions)
	if err != nil {
		return rmseSet{}, err
	}
	ref, err := lattice.NewEngine(cfg.RMSESteps)
	if err != nil {
		return rmseSet{}, err
	}
	want, err := ref.PriceBatch(opts, cfg.Workers)
	if err != nil {
		return rmseSet{}, err
	}
	run := func(e *lattice.Engine) (float64, error) {
		got, err := e.PriceBatch(opts, cfg.Workers)
		if err != nil {
			return 0, err
		}
		return mathx.RMSE(got, want), nil
	}
	var out rmseSet
	if out.flawedPowDouble, err = run(ref.WithDeviceLeaves(hwmath.Flawed13)); err != nil {
		return rmseSet{}, err
	}
	if out.single, err = run(ref.WithSinglePrecision()); err != nil {
		return rmseSet{}, err
	}
	// Host-leaves double is the reference algorithm itself.
	out.hostLeavesDouble = 0
	return out, nil
}

// SaturationResult carries the §V-C saturation study for one platform.
type SaturationResult struct {
	Label  string
	Points []perf.CurvePoint
	Text   string
}

// Saturation sweeps workload sizes on the FPGA and GPU builds of kernel
// IV.B, reproducing the discussion that the FPGA reaches linear
// throughput around 1e5 options and the GPU needs ten times more.
func Saturation(workloads []int64) ([]SaturationResult, error) {
	if len(workloads) == 0 {
		workloads = []int64{100, 1000, 2000, 10_000, 100_000, 1_000_000, 10_000_000}
	}
	var ests []perf.Estimate
	for _, name := range []string{"fpga-ivb", "gpu-ivb"} {
		plat, err := accel.Get(name)
		if err != nil {
			return nil, err
		}
		e, err := plat.Estimate(1024, accel.Options{})
		if err != nil {
			return nil, err
		}
		ests = append(ests, e)
	}
	var out []SaturationResult
	for _, p := range ests {
		label := fmt.Sprintf("IV.B %s", p.Platform)
		pts := perf.SaturationCurve(p.OptionsPerSec, p.SaturationOptions, workloads)
		out = append(out, SaturationResult{
			Label:  label,
			Points: pts,
			Text:   report.FormatSaturation(label, pts),
		})
	}
	return out, nil
}

// VolCurveConfig scales the trader use case (experiment E2).
type VolCurveConfig struct {
	// Quotes is the chain size (default 2000, the paper's curve).
	Quotes int
	// Steps is the tree depth for both quote generation and inversion
	// (default 1024; tests use less).
	Steps int
	// Seed drives the synthetic chain.
	Seed int64
	// Workers bounds the goroutines of each batch pricing, both for the
	// reference quotes and for every solver round (<=0: GOMAXPROCS).
	Workers int
}

// VolCurveResult is the recovered curve plus the modelled accelerator
// timing for the workload.
type VolCurveResult struct {
	Points  []volatility.CurvePoint
	Skipped int
	// FPGASeconds is the modelled time for the DE4 kernel IV.B to price
	// the chain once (the paper's one-second-per-curve target), and
	// FPGAPowerWatts its dissipation.
	FPGASeconds    float64
	FPGAPowerWatts float64
	Text           string
}

// VolCurve runs the use case end to end: generate the chain, produce
// binomial reference quotes, invert them to an implied-volatility curve,
// and attach the modelled FPGA cost of the pricing workload.
func VolCurve(cfg VolCurveConfig) (VolCurveResult, error) {
	if cfg.Quotes == 0 {
		cfg.Quotes = 2000
	}
	if cfg.Steps == 0 {
		cfg.Steps = 1024
	}
	spec := workload.DefaultVolCurveSpec(cfg.Seed)
	spec.N = cfg.Quotes
	opts, err := workload.Chain(spec)
	if err != nil {
		return VolCurveResult{}, err
	}
	quotes, err := workload.ReferenceQuotes(opts, cfg.Steps, cfg.Workers)
	if err != nil {
		return VolCurveResult{}, err
	}
	eng, err := lattice.NewEngine(cfg.Steps)
	if err != nil {
		return VolCurveResult{}, err
	}
	pts, skipped, err := volatility.Curve(quotes, func(opts []Option) ([]float64, error) {
		return eng.PriceBatch(opts, cfg.Workers)
	})
	if err != nil {
		return VolCurveResult{}, err
	}

	plat, err := accel.Get("fpga-ivb")
	if err != nil {
		return VolCurveResult{}, err
	}
	fpga, err := plat.Estimate(cfg.Steps, accel.Options{})
	if err != nil {
		return VolCurveResult{}, err
	}
	seconds := perf.SecondsFor(fpga.OptionsPerSec, fpga.SaturationOptions, int64(cfg.Quotes))

	var b strings.Builder
	fmt.Fprintf(&b, "Implied volatility curve: %d quotes, %d informative, %d skipped (pinned at intrinsic)\n",
		cfg.Quotes, len(pts), skipped)
	fmt.Fprintf(&b, "modelled %s kernel IV.B pricing pass: %.3f s at %.1f W (%.0f options/s steady state)\n",
		plat.Describe().Label, seconds, fpga.PowerWatts, fpga.OptionsPerSec)
	tbl := report.NewTable("strike", "moneyness", "implied vol")
	stride := len(pts) / 10
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(pts); i += stride {
		p := pts[i]
		tbl.AddRow(fmt.Sprintf("%.2f", p.Strike), fmt.Sprintf("%.3f", p.Mny), fmt.Sprintf("%.4f", p.Implied))
	}
	b.WriteString(tbl.String())
	if len(pts) >= 2 {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.Mny
			ys[i] = p.Implied
		}
		if plot, perr := trace.Plot("recovered smile", "moneyness", "implied vol", xs, ys, 60, 12); perr == nil {
			b.WriteString("\n")
			b.WriteString(plot)
		}
	}

	return VolCurveResult{
		Points:         pts,
		Skipped:        skipped,
		FPGASeconds:    seconds,
		FPGAPowerWatts: fpga.PowerWatts,
		Text:           b.String(),
	}, nil
}

// KnobSweepRow is one compilation iteration of experiment E3.
type KnobSweepRow struct {
	Kernel string
	Knobs  hls.Knobs
	Fits   bool
	Report hls.FitReport
	// OptionsPerSec is the modelled throughput when the design fits.
	OptionsPerSec float64
}

// KnobSweep explores the vectorize/replicate/unroll space for both
// kernels on the DE4 — the "several compilation iterations to find the
// best resource consumption rate" of §V-B — and returns every point with
// its fit outcome and modelled throughput.
func KnobSweep(steps int) ([]KnobSweepRow, string, error) {
	if steps <= 0 {
		steps = 1024
	}
	f, err := fpgaFitter()
	if err != nil {
		return nil, "", err
	}
	var rows []KnobSweepRow
	add := func(kernel accel.Kernel, k hls.Knobs, opts accel.Options) error {
		rep, err := f.Fit(steps, kernel, k)
		if err != nil {
			if strings.Contains(err.Error(), "does not fit") {
				rows = append(rows, KnobSweepRow{Kernel: string(kernel), Knobs: k})
				return nil
			}
			return err
		}
		opts.Kernel = kernel
		opts.Fit = &rep
		e, err := f.Estimate(steps, opts)
		if err != nil {
			return err
		}
		rows = append(rows, KnobSweepRow{
			Kernel: string(kernel), Knobs: k, Fits: true, Report: rep, OptionsPerSec: e.OptionsPerSec,
		})
		return nil
	}
	for _, v := range []int{1, 2, 4} {
		for _, r := range []int{1, 2, 3, 4} {
			k := hls.Knobs{Vectorize: v, Replicate: r, Unroll: 1}
			if err := add(accel.KernelIVA, k, accel.Options{FullReadback: true}); err != nil {
				return nil, "", err
			}
		}
	}
	for _, v := range []int{1, 2, 4, 8} {
		for _, u := range []int{1, 2, 4} {
			k := hls.Knobs{Vectorize: v, Replicate: 1, Unroll: u}
			if err := add(accel.KernelIVB, k, accel.Options{}); err != nil {
				return nil, "", err
			}
		}
	}

	tbl := report.NewTable("kernel", "knobs", "fits", "logic %", "M9K", "DSP", "Fmax MHz", "power W", "options/s")
	for _, r := range rows {
		if !r.Fits {
			tbl.AddRow(r.Kernel, r.Knobs.String(), "no", "-", "-", "-", "-", "-", "-")
			continue
		}
		tbl.AddRow(r.Kernel, r.Knobs.String(), "yes",
			fmt.Sprintf("%.0f", r.Report.LogicUtilPct),
			fmt.Sprintf("%d", r.Report.M9K),
			fmt.Sprintf("%d", r.Report.DSP18),
			fmt.Sprintf("%.1f", r.Report.FmaxMHz),
			fmt.Sprintf("%.1f", r.Report.PowerWatts),
			fmt.Sprintf("%.0f", r.OptionsPerSec))
	}
	return rows, tbl.String(), nil
}

// PowAccuracyResult carries experiment E4: the accuracy of the three leaf
// strategies at a given tree depth.
type PowAccuracyResult struct {
	FlawedRMSE   float64
	FixedRMSE    float64
	HostRMSE     float64
	SingleRMSE   float64
	WorstLeafRel float64
	Text         string
}

// PowAccuracy isolates the Power-operator inaccuracy the paper reports:
// device-side leaves through the flawed core versus the fixed core versus
// host-computed leaves, against the double-precision reference.
func PowAccuracy(steps, batch, workers int) (PowAccuracyResult, error) {
	if steps <= 0 {
		steps = 1024
	}
	if batch <= 0 {
		batch = 40
	}
	opts, err := workload.MixedBatch(979, batch)
	if err != nil {
		return PowAccuracyResult{}, err
	}
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		return PowAccuracyResult{}, err
	}
	want, err := ref.PriceBatch(opts, workers)
	if err != nil {
		return PowAccuracyResult{}, err
	}
	run := func(e *lattice.Engine) (float64, error) {
		got, err := e.PriceBatch(opts, workers)
		if err != nil {
			return 0, err
		}
		return mathx.RMSE(got, want), nil
	}
	var res PowAccuracyResult
	if res.FlawedRMSE, err = run(ref.WithDeviceLeaves(hwmath.Flawed13)); err != nil {
		return res, err
	}
	if res.FixedRMSE, err = run(ref.WithDeviceLeaves(hwmath.Accurate13SP1)); err != nil {
		return res, err
	}
	if res.SingleRMSE, err = run(ref.WithSinglePrecision()); err != nil {
		return res, err
	}
	res.HostRMSE = 0 // host leaves double is the reference itself
	u := 1.0062
	res.WorstLeafRel = hwmath.Flawed13.WorstRelError(u, steps)

	tbl := report.NewTable("leaf strategy", "RMSE vs reference", "note")
	tbl.AddRow("device pow (Altera 13.0 emu)", report.Sci(res.FlawedRMSE), report.RMSENote(res.FlawedRMSE))
	tbl.AddRow("device pow (13.0 SP1 emu)", report.Sci(res.FixedRMSE), report.RMSENote(res.FixedRMSE))
	tbl.AddRow("host-computed leaves", report.Sci(res.HostRMSE), "0 (reference algorithm)")
	tbl.AddRow("single-precision build", report.Sci(res.SingleRMSE), report.RMSENote(res.SingleRMSE))
	res.Text = fmt.Sprintf("Power-operator accuracy isolation (N=%d, %d options)\nworst leaf relative error of the flawed core: %.2e\n%s",
		steps, batch, res.WorstLeafRel, tbl.String())
	return res, nil
}
