package accel

import (
	"errors"
	"math"
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/opencl"
	"binopt/internal/option"
)

// TestEngineMatchesReference: every platform's engine must price
// bit-for-bit like the host reference at its serving depth.
func TestEngineMatchesReference(t *testing.T) {
	const steps = 64
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	o := option.Option{Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}
	want, err := ref.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Platforms() {
		name := p.Describe().Name
		eng, err := p.NewEngine(steps)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", name, err)
		}
		got, err := eng.Price(o)
		if err != nil {
			t.Fatalf("%s: Price: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: price %v (%#x) != reference %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if eng.Steps() != steps {
			t.Errorf("%s: Steps = %d", name, eng.Steps())
		}
	}
}

// TestEngineAccounting: counters and modelled energy accumulate with
// priced options, and the kernel-backed engines carry real substrate
// activity from the probe.
func TestEngineAccounting(t *testing.T) {
	for _, p := range Platforms() {
		d := p.Describe()
		eng, err := p.NewEngine(32)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if eng.PricedOptions() != 0 || eng.Counters() != (opencl.Counters{}) {
			t.Errorf("%s: fresh engine already accounted work", d.Name)
		}
		batch := probeChain()
		if _, err := eng.PriceBatch(batch, 1); err != nil {
			t.Fatalf("%s: PriceBatch: %v", d.Name, err)
		}
		if got := eng.PricedOptions(); got != int64(len(batch)) {
			t.Errorf("%s: priced %d, want %d", d.Name, got, len(batch))
		}
		c := eng.Counters()
		if c.Flops <= 0 {
			t.Errorf("%s: no modelled flops: %v", d.Name, c)
		}
		if d.Kind != "cpu" {
			if c.Barriers <= 0 || c.LocalReads <= 0 || c.HostBytes() <= 0 {
				t.Errorf("%s: kernel engine missing substrate activity: %v", d.Name, c)
			}
			if eng.ProbeSteps() <= 0 {
				t.Errorf("%s: no probe recorded", d.Name)
			}
		}
		if eng.ModelledJoulesPerOption() <= 0 {
			t.Errorf("%s: no modelled energy", d.Name)
		}
		wantJ := float64(len(batch)) * eng.ModelledJoulesPerOption()
		if got := eng.ModelledJoules(); math.Abs(got-wantJ) > 1e-12*wantJ {
			t.Errorf("%s: ModelledJoules = %g, want %g", d.Name, got, wantJ)
		}
	}
}

// TestQuadBatchAccounting: a batch routes through quad-interleaved
// sweeps, so its modelled activity must book one shared-sweep group per
// four options, and a 1–3-option tail books one more whole group — the
// partly filled group runs the full sweep. Control costs are paid once
// per group, data costs per group lane; joules stay per option.
func TestQuadBatchAccounting(t *testing.T) {
	for _, p := range Platforms() {
		d := p.Describe()
		eng, err := p.NewEngine(32)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		chain := probeChain()
		for _, n := range []int{1, 2, 3, 4, 5} {
			batch := make([]option.Option, n)
			for i := range batch {
				batch[i] = chain[i%len(chain)]
				batch[i].Strike += float64(i)
			}
			before, pricedBefore := eng.Counters(), eng.PricedOptions()
			if _, err := eng.PriceBatch(batch, 1); err != nil {
				t.Fatalf("%s: PriceBatch: %v", d.Name, err)
			}
			groups := (n + 3) / 4
			var want opencl.Counters
			want.Add(before)
			for g := 0; g < groups; g++ {
				want.Add(eng.perQuad)
			}
			got := eng.Counters()
			if got != want {
				t.Errorf("%s: batch of %d booked %+v, want %d quad group(s) %+v", d.Name, n, got, groups, want)
			}
			// Data-side activity is per group lane, mirrored lanes included.
			if flops := got.Flops - before.Flops; flops != int64(4*groups)*eng.perOption.Flops {
				t.Errorf("%s: batch of %d flops %d, want %dx per-option %d", d.Name, n, flops, 4*groups, eng.perOption.Flops)
			}
			// Control-side activity is shared across a group's four lanes:
			// the group crosses each barrier once, so 5 options cost 2
			// options' worth of barriers, not 5.
			if d.Kind != "cpu" {
				if per := eng.perOption.Barriers; per <= 0 || got.Barriers-before.Barriers != int64(groups)*per {
					t.Errorf("%s: batch of %d barriers %d, want %dx per-option %d",
						d.Name, n, got.Barriers-before.Barriers, groups, per)
				}
			}
			if priced := eng.PricedOptions() - pricedBefore; priced != int64(n) {
				t.Errorf("%s: batch of %d booked %d options", d.Name, n, priced)
			}
		}
	}
}

// TestPriceAndGreeksBatchBooksLanes pins the Greeks accounting to the
// batch rule: a book of n CRR positions is 5n lanes, booked as 5n
// priced options and one perQuad per quad group the lanes fill.
func TestPriceAndGreeksBatchBooksLanes(t *testing.T) {
	eng, err := Get("fpga-ivb")
	if err != nil {
		t.Fatal(err)
	}
	e, err := eng.NewEngine(32)
	if err != nil {
		t.Fatal(err)
	}
	chain := probeChain()
	for _, n := range []int{1, 3, 4, 7} {
		book := make([]option.Option, n)
		for i := range book {
			book[i] = chain[i%len(chain)]
			book[i].Strike += float64(i)
		}
		before, pricedBefore := e.Counters(), e.PricedOptions()
		if _, _, err := e.PriceAndGreeksBatch(book, 2); err != nil {
			t.Fatal(err)
		}
		lanes := e.GreeksLanes(n)
		if lanes != 5*n {
			t.Fatalf("CRR book of %d: %d lanes, want %d", n, lanes, 5*n)
		}
		if priced := e.PricedOptions() - pricedBefore; priced != int64(lanes) {
			t.Errorf("book of %d booked %d options, want %d lanes", n, priced, lanes)
		}
		want := before
		for g := 0; g < quadGroups(lanes); g++ {
			want.Add(e.perQuad)
		}
		if got := e.Counters(); got != want {
			t.Errorf("book of %d booked %+v, want %d quad group(s) %+v", n, got, quadGroups(lanes), want)
		}
	}
}

// TestEngineCountersScaleWithDepth: the modelled per-option arithmetic
// must grow roughly quadratically with the serving depth even though the
// probe depth is capped.
func TestEngineCountersScaleWithDepth(t *testing.T) {
	fpga, err := Get("fpga-ivb")
	if err != nil {
		t.Fatal(err)
	}
	flopsAt := func(steps int) int64 {
		eng, err := fpga.NewEngine(steps)
		if err != nil {
			t.Fatalf("NewEngine(%d): %v", steps, err)
		}
		if _, err := eng.Price(probeChain()[0]); err != nil {
			t.Fatal(err)
		}
		return eng.Counters().Flops
	}
	f512, f1024 := flopsAt(512), flopsAt(1024)
	ratio := float64(f1024) / float64(f512)
	// nodes(1024)/nodes(512) = 1024*1025/(512*513) ≈ 3.996
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("flops ratio 1024/512 = %.2f (%d vs %d), want ~4", ratio, f1024, f512)
	}
}

// TestProbeDepthRespectsDeviceLimits: the probe must fit the device's
// work-group ceiling and local memory.
func TestProbeDepthRespectsDeviceLimits(t *testing.T) {
	cases := []struct {
		info  opencl.DeviceInfo
		steps int
		want  int
	}{
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 1 << 20}, 64, 64},
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 1 << 20}, 4096, maxProbeSteps},
		{opencl.DeviceInfo{MaxWorkGroupSize: 128, LocalMemBytes: 1 << 20}, 4096, 127},
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 512}, 4096, 63},
		{opencl.DeviceInfo{}, 100, 100},
	}
	for _, c := range cases {
		if got := probeDepth(c.info, c.steps); got != c.want {
			t.Errorf("probeDepth(%+v, %d) = %d, want %d", c.info, c.steps, got, c.want)
		}
	}
}

// TestEngineFaultHook: an armed hook fails pricing with its error and
// accounts nothing — the injector's substrate outage must be invisible
// in the counters; disarming restores normal service.
func TestEngineFaultHook(t *testing.T) {
	p, err := Get("cpu-ref")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.NewEngine(32)
	if err != nil {
		t.Fatal(err)
	}
	o := option.Option{Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}

	boom := errors.New("boom")
	calls := 0
	eng.SetFaultHook(func() error {
		calls++
		if calls%2 == 1 {
			return boom
		}
		return nil
	})

	if _, err := eng.Price(o); !errors.Is(err, boom) {
		t.Fatalf("faulted Price = %v, want the hook's error", err)
	}
	if got := eng.PricedOptions(); got != 0 {
		t.Fatalf("failed pricing accounted %d options, want 0", got)
	}
	if c := eng.Counters(); c.Flops != 0 {
		t.Fatalf("failed pricing accounted %d flops, want 0", c.Flops)
	}
	if _, err := eng.Price(o); err != nil {
		t.Fatalf("hook pass-through still failed: %v", err)
	}
	if _, _, err := eng.PriceBatchTraced([]option.Option{o}, 1); !errors.Is(err, boom) {
		t.Fatalf("faulted PriceBatchTraced = %v, want the hook's error", err)
	}
	if _, err := eng.PriceBatch([]option.Option{o, o}, 1); err != nil {
		t.Fatalf("batch after even call count failed: %v", err)
	}
	if got := eng.PricedOptions(); got != 3 {
		t.Fatalf("priced %d options, want 3 (1 single + 2 batch)", got)
	}

	eng.SetFaultHook(nil)
	if _, err := eng.Price(o); err != nil {
		t.Fatalf("disarmed engine failed: %v", err)
	}
}
