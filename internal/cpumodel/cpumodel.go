// Package cpumodel prices the paper's software reference in time: a
// single-core C program on a Xeon X5450 (§V-A). The model is a
// cycles-per-node-update abstraction calibrated on the published 222
// options/s (double precision, N=1024); the single-precision build is
// scaled by the published single/double ratio, which is below one — the
// reference code ran slower in single precision.
package cpumodel

import (
	"fmt"

	"binopt/internal/device"
)

// Model estimates reference-software run times.
type Model struct {
	Spec device.CPUSpec
}

// New returns a model over the given CPU.
func New(spec device.CPUSpec) Model { return Model{Spec: spec} }

// OptionsPerSec returns the single-core pricing throughput for trees of
// the given depth.
func (m Model) OptionsPerSec(steps int, single bool) (float64, error) {
	if steps < 1 {
		return 0, fmt.Errorf("cpumodel: steps must be positive, got %d", steps)
	}
	nodes := float64(steps) * float64(steps+1) / 2
	perSec := m.Spec.ClockHz / m.Spec.CyclesPerNode / nodes
	if single {
		perSec *= m.Spec.SingleSpeedup
	}
	return perSec, nil
}

// PowerWatts returns the dissipation attributed to the run. The paper
// uses the processor TDP for the energy-per-option comparison.
func (m Model) PowerWatts() float64 { return m.Spec.TDPWatts }
