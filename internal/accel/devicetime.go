package accel

import (
	"binopt/internal/opencl"
	"binopt/internal/perf"
)

// DeviceCommand is one modelled command on a platform's virtual device
// clock, carrying the four profiling timestamps of
// CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END} as seconds since the
// engine was built. The host enqueues a submission's whole command
// batch up front (the in-order queue of §IV), so every command of one
// submission shares a Queued/Submit instant while Start/End tile the
// interval back to back.
type DeviceCommand struct {
	Name                       string
	Queued, Submit, Start, End float64
}

// Seconds is the command's modelled device execution time.
func (c DeviceCommand) Seconds() float64 { return c.End - c.Start }

// DeviceTrace is the modelled device timeline of one batch submission:
// the interval the batch occupied on the device clock and its
// per-command decomposition (transfer in, kernel, readback).
type DeviceTrace struct {
	// Backend names the platform whose clock this is.
	Backend string
	// Start and End bracket the submission on the device clock, seconds.
	Start, End float64
	// Options and QuadGroups size the submission: the options priced and
	// the interleaved quad groups they were swept in.
	Options, QuadGroups int
	Commands            []DeviceCommand
}

// devCommandPlan is the command schedule, precomputed at engine
// construction: command names and their fractions of the modelled
// device time. The fractions are per option, so they apportion a batch
// of any size.
type devCommandPlan struct {
	names []string
	frac  []float64
}

// devPlanWeights are the synthetic unit costs that apportion the
// estimate's per-option seconds across the option's commands. Only the
// ratios matter — the total is pinned to 1/OptionsPerSec — and they
// encode the paper's qualitative ordering: a PCIe byte is far more
// expensive than a flop, local memory is near-free, barriers cost a
// few cycles of convergence.
const (
	devCostPCIeByte   = 32.0
	devCostGlobalByte = 2.0
	devCostLocalByte  = 0.25
	devCostFlop       = 1.0
	devCostBarrier    = 4.0
)

// newDevCommandPlan derives the command schedule from the engine's
// modelled per-option counters. Engines with host transfers (the
// kernel-substrate platforms) decompose into the three commands the IV.B
// host program issues; the pure-host reference collapses to one compute
// command.
func newDevCommandPlan(c opencl.Counters) devCommandPlan {
	kernelRaw := float64(c.Flops)*devCostFlop +
		float64(c.GlobalReads+c.GlobalWrites)*devCostGlobalByte +
		float64(c.LocalReads+c.LocalWrites)*devCostLocalByte +
		float64(c.Barriers)*devCostBarrier
	if c.HostTransfers == 0 {
		return devCommandPlan{names: []string{"compute"}, frac: []float64{1}}
	}
	inRaw := float64(c.HostWrites) * devCostPCIeByte
	outRaw := float64(c.HostReads) * devCostPCIeByte
	total := inRaw + kernelRaw + outRaw
	if total <= 0 {
		return devCommandPlan{names: []string{"compute"}, frac: []float64{1}}
	}
	return devCommandPlan{
		names: []string{"write params+leaves", "ndrange IV.B", "read result"},
		frac:  []float64{inRaw / total, kernelRaw / total, outRaw / total},
	}
}

// trace lays the plan onto the device clock starting at start seconds,
// spending total seconds.
func (p devCommandPlan) trace(backend string, start, total float64) DeviceTrace {
	dt := DeviceTrace{Backend: backend, Start: start, End: start + total,
		Commands: make([]DeviceCommand, len(p.names))}
	at := start
	for i, name := range p.names {
		d := total * p.frac[i]
		dt.Commands[i] = DeviceCommand{Name: name, Queued: start, Submit: start, Start: at, End: at + d}
		at += d
	}
	// Float drift never leaves a gap at the submission boundary.
	if n := len(dt.Commands); n > 0 {
		dt.Commands[n-1].End = dt.End
	}
	return dt
}

// secondsPerOption is the modelled device time of one option under the
// estimate (zero when the estimate has no throughput).
func secondsPerOption(est perf.Estimate) float64 {
	if est.OptionsPerSec <= 0 {
		return 0
	}
	return 1 / est.OptionsPerSec
}
