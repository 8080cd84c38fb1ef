// Package opencl is a functional simulator of the OpenCL execution model
// the paper programs against (§III-C): a host enqueues kernels and buffer
// transfers on command queues; a device executes NDRanges of work-items
// organised into work-groups; memory is split into global (host-visible),
// local (per work-group, shared, barrier-synchronised) and private (per
// work-item) levels.
//
// The simulator executes kernels for real — the option prices produced by
// the kernels in internal/kernels are computed through this runtime — and
// meters every interaction (bytes moved per memory level, flops, barriers,
// work-items) so the performance models in internal/perf can translate a
// run into device time and energy. It performs no timing itself.
package opencl

import (
	"fmt"
	"sync"
)

// DeviceType classifies a device the way OpenCL device queries do.
type DeviceType int

const (
	// CPU devices execute kernels on the host processor.
	CPU DeviceType = iota
	// GPU devices are discrete graphics processors.
	GPU
	// Accelerator covers FPGA boards exposed through vendor OpenCL SDKs.
	Accelerator
)

// String names the device type.
func (t DeviceType) String() string {
	switch t {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case Accelerator:
		return "accelerator"
	default:
		return fmt.Sprintf("DeviceType(%d)", int(t))
	}
}

// DeviceInfo is the static description of a device, the analogue of
// clGetDeviceInfo.
type DeviceInfo struct {
	Name             string
	Vendor           string
	Type             DeviceType
	ComputeUnits     int
	GlobalMemBytes   int64
	LocalMemBytes    int64
	MaxWorkGroupSize int
}

// Platform groups the devices of one vendor, the analogue of
// clGetPlatformIDs.
type Platform struct {
	Name    string
	Vendor  string
	Version string
	devices []*Device
}

// NewPlatform creates a platform exposing the given devices.
func NewPlatform(name, vendor, version string, infos ...DeviceInfo) *Platform {
	p := &Platform{Name: name, Vendor: vendor, Version: version}
	for _, info := range infos {
		p.devices = append(p.devices, &Device{Info: info})
	}
	return p
}

// Devices returns the platform's devices, optionally filtered by type.
// Passing a negative filter returns all devices.
func (p *Platform) Devices(filter DeviceType) []*Device {
	if filter < 0 {
		out := make([]*Device, len(p.devices))
		copy(out, p.devices)
		return out
	}
	var out []*Device
	for _, d := range p.devices {
		if d.Info.Type == filter {
			out = append(out, d)
		}
	}
	return out
}

// Device is a simulated OpenCL device.
type Device struct {
	Info DeviceInfo

	mu        sync.Mutex
	allocated int64
}

// reserve accounts a global-memory allocation against the device limit.
func (d *Device) reserve(bytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Info.GlobalMemBytes > 0 && d.allocated+bytes > d.Info.GlobalMemBytes {
		return fmt.Errorf("opencl: device %q out of global memory: %d + %d > %d",
			d.Info.Name, d.allocated, bytes, d.Info.GlobalMemBytes)
	}
	d.allocated += bytes
	return nil
}

// release returns a global-memory allocation to the device.
func (d *Device) release(bytes int64) {
	d.mu.Lock()
	d.allocated -= bytes
	d.mu.Unlock()
}

// Context owns buffers and queues for one device, the analogue of
// clCreateContext.
type Context struct {
	device *Device
}

// NewContext creates a context bound to the device.
func NewContext(d *Device) (*Context, error) {
	if d == nil {
		return nil, fmt.Errorf("opencl: nil device")
	}
	return &Context{device: d}, nil
}
