package opencl

import (
	"strings"
	"testing"
)

func testDevice() DeviceInfo {
	return DeviceInfo{
		Name:             "test-fpga",
		Vendor:           "testvendor",
		Type:             Accelerator,
		ComputeUnits:     4,
		GlobalMemBytes:   1 << 20,
		LocalMemBytes:    1 << 14,
		MaxWorkGroupSize: 256,
	}
}

func newCtx(t *testing.T) (*Context, *Device) {
	t.Helper()
	p := NewPlatform("Test SDK", "testvendor", "OpenCL 1.1", testDevice())
	devs := p.Devices(Accelerator)
	if len(devs) != 1 {
		t.Fatalf("got %d accelerator devices", len(devs))
	}
	ctx, err := NewContext(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	return ctx, devs[0]
}

func TestPlatformDeviceFiltering(t *testing.T) {
	p := NewPlatform("SDK", "v", "1.1",
		DeviceInfo{Name: "c", Type: CPU},
		DeviceInfo{Name: "g", Type: GPU},
		DeviceInfo{Name: "f", Type: Accelerator},
	)
	if got := len(p.Devices(-1)); got != 3 {
		t.Errorf("all devices: %d", got)
	}
	if got := p.Devices(GPU); len(got) != 1 || got[0].Info.Name != "g" {
		t.Errorf("GPU filter: %+v", got)
	}
	if got := len(p.Devices(CPU)); got != 1 {
		t.Errorf("CPU filter: %d", got)
	}
}

func TestDeviceTypeString(t *testing.T) {
	for _, c := range []struct {
		t    DeviceType
		want string
	}{{CPU, "cpu"}, {GPU, "gpu"}, {Accelerator, "accelerator"}} {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v", got)
		}
	}
	if !strings.Contains(DeviceType(9).String(), "9") {
		t.Error("unknown type should include number")
	}
}

func TestNewContextNilDevice(t *testing.T) {
	if _, err := NewContext(nil); err == nil {
		t.Error("nil device should fail")
	}
}

func TestBufferLifecycle(t *testing.T) {
	ctx, dev := newCtx(t)
	b, err := ctx.CreateBuffer("x", 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 100 || b.Bytes() != 800 || b.elemBytes != 8 || b.name != "x" {
		t.Errorf("buffer metadata wrong: %+v", b)
	}
	if got := dev.allocated; got != 800 {
		t.Errorf("allocated = %d", got)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if got := dev.allocated; got != 0 {
		t.Errorf("allocated after release = %d", got)
	}
	if err := b.Release(); err == nil {
		t.Error("double release should fail")
	}
}

func TestBufferCreationErrors(t *testing.T) {
	ctx, _ := newCtx(t)
	if _, err := ctx.CreateBuffer("bad", 0, 8); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := ctx.CreateBuffer("bad", 10, 3); err == nil {
		t.Error("elem size 3 should fail")
	}
	// Exhaust global memory (device has 1 MiB).
	if _, err := ctx.CreateBuffer("huge", 1<<20, 8); err == nil {
		t.Error("over-allocation should fail")
	}
}

func TestSinglePrecisionBufferAccounting(t *testing.T) {
	ctx, _ := newCtx(t)
	b, err := ctx.CreateBuffer("sp", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bytes() != 40 {
		t.Errorf("Bytes = %d, want 40", b.Bytes())
	}
}

func TestWriteReadBuffer(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	b, err := ctx.CreateBuffer("io", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3}
	if _, err := q.EnqueueWriteBuffer(b, 2, in); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	if _, err := q.EnqueueReadBuffer(b, 2, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("out[%d] = %v", i, out[i])
		}
	}
	st := q.Counters()
	if st.HostWrites != 24 || st.HostReads != 24 || st.HostTransfers != 2 {
		t.Errorf("transfer accounting: %+v", st)
	}
}

func TestTransferRangeErrors(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	b, _ := ctx.CreateBuffer("io", 4, 8)
	if _, err := q.EnqueueWriteBuffer(b, 2, make([]float64, 3)); err == nil {
		t.Error("overflowing write should fail")
	}
	if _, err := q.EnqueueReadBuffer(b, -1, make([]float64, 1)); err == nil {
		t.Error("negative offset read should fail")
	}
}
