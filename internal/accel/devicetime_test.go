package accel

import (
	"math"
	"testing"

	"binopt/internal/option"
)

// tracedBatch is n distinct American puts.
func tracedBatch(n int) []option.Option {
	out := make([]option.Option, n)
	for i := range out {
		out[i] = option.Option{
			Right: option.Put, Style: option.American,
			Spot: 100, Strike: 100 + float64(i), Rate: 0.03, Sigma: 0.2, T: 0.5,
		}
	}
	return out
}

// TestBatchTimeline: a kernel-substrate engine's modelled device trace
// is one timeline per batch submission. It decomposes the submission
// into the IV.B command sequence, tiles the device clock gaplessly
// across submissions, and spends exactly the estimate's per-option
// seconds times the batch size.
func TestBatchTimeline(t *testing.T) {
	p, err := Get("fpga-ivb")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.NewEngine(128)
	if err != nil {
		t.Fatal(err)
	}
	spo := eng.ModelledSecondsPerOption()
	if spo <= 0 {
		t.Fatalf("seconds per option = %v", spo)
	}

	var prevEnd float64
	priced := 0
	for _, n := range []int{1, 4, 6} {
		batch := tracedBatch(n)
		prices, dtr, err := eng.PriceBatchTraced(batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.PriceBatch(batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(prices[i]) != math.Float64bits(want[i]) {
				t.Errorf("batch of %d, option %d: PriceBatchTraced %v != PriceBatch %v", n, i, prices[i], want[i])
			}
		}
		if dtr.Backend != "fpga-ivb" {
			t.Errorf("backend = %q", dtr.Backend)
		}
		if dtr.Options != n || dtr.QuadGroups != (n+3)/4 {
			t.Errorf("batch of %d: trace sized %d options in %d quad groups, want %d in %d",
				n, dtr.Options, dtr.QuadGroups, n, (n+3)/4)
		}
		// The submission occupies [prevEnd, prevEnd+n·spo) — the plain
		// PriceBatch above then advanced the clock by another n options.
		if math.Abs(dtr.Start-prevEnd) > 1e-12 {
			t.Errorf("batch of %d starts at %v, want %v (device clock must be contiguous)", n, dtr.Start, prevEnd)
		}
		if math.Abs((dtr.End-dtr.Start)-float64(n)*spo) > 1e-9*spo {
			t.Errorf("batch of %d spans %v device seconds, want %v", n, dtr.End-dtr.Start, float64(n)*spo)
		}
		names := make([]string, len(dtr.Commands))
		at := dtr.Start
		var sum float64
		for c, cmd := range dtr.Commands {
			names[c] = cmd.Name
			if cmd.Queued != dtr.Start || cmd.Submit != dtr.Start {
				t.Errorf("command %q queued/submit not at submission start: %+v", cmd.Name, cmd)
			}
			if math.Abs(cmd.Start-at) > 1e-12 {
				t.Errorf("command %q starts at %v, want %v (commands must tile)", cmd.Name, cmd.Start, at)
			}
			if cmd.End < cmd.Start {
				t.Errorf("command %q ends before it starts", cmd.Name)
			}
			at = cmd.End
			sum += cmd.Seconds()
		}
		if len(names) != 3 || names[0] != "write params+leaves" || names[1] != "ndrange IV.B" || names[2] != "read result" {
			t.Errorf("command sequence = %v", names)
		}
		if dtr.Commands[len(dtr.Commands)-1].End != dtr.End {
			t.Errorf("last command ends at %v, submission at %v", at, dtr.End)
		}
		if math.Abs(sum-float64(n)*spo) > 1e-9*spo {
			t.Errorf("commands sum to %v, batch costs %v", sum, float64(n)*spo)
		}
		// The kernel dominates: transfers are overhead, not the bulk.
		if k := dtr.Commands[1].Seconds(); k < dtr.Commands[0].Seconds() || k < dtr.Commands[2].Seconds() {
			t.Errorf("kernel (%v) should dominate transfers (%v, %v)",
				k, dtr.Commands[0].Seconds(), dtr.Commands[2].Seconds())
		}
		prevEnd = dtr.End + float64(n)*spo
		priced += 2 * n
	}

	if got, want := eng.ModelledDeviceSeconds(), float64(priced)*spo; math.Abs(got-want) > 1e-9*want {
		t.Errorf("ModelledDeviceSeconds = %v, want %v", got, want)
	}
}

// TestBatchTimelineHostEngine: the pure-host reference engine collapses
// to a single compute command — no PCIe lanes to model.
func TestBatchTimelineHostEngine(t *testing.T) {
	p, err := Get("cpu-ref")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.NewEngine(64)
	if err != nil {
		t.Fatal(err)
	}
	_, dtr, err := eng.PriceBatchTraced(tracedBatch(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dtr.Commands) != 1 || dtr.Commands[0].Name != "compute" {
		t.Errorf("host engine commands = %+v, want one compute", dtr.Commands)
	}
	if dtr.Commands[0].End != dtr.End || dtr.Commands[0].Start != dtr.Start {
		t.Errorf("compute command must cover the submission interval: %+v", dtr)
	}
}
