package opencl

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNDRangeSquareKernel(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	in, _ := ctx.CreateBuffer("in", 64, 8)
	out, _ := ctx.CreateBuffer("out", 64, 8)
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	if _, err := q.EnqueueWriteBuffer(in, 0, data); err != nil {
		t.Fatal(err)
	}

	k := NewKernel("square", false, func(wi *WorkItem) {
		i := wi.GlobalID()
		x := wi.Load(wi.Buffer(0), i)
		wi.Store(wi.Buffer(1), i, x*x)
		wi.AddFlops(1)
	})
	if err := k.SetArgs(in, out); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueNDRange(k, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats.WorkItems != 64 || ev.Stats.WorkGroups != 4 {
		t.Errorf("stats: %+v", ev.Stats)
	}
	if ev.Stats.GlobalReads != 64*8 || ev.Stats.GlobalWrites != 64*8 || ev.Stats.Flops != 64 {
		t.Errorf("traffic: %+v", ev.Stats)
	}

	res := make([]float64, 64)
	if _, err := q.EnqueueReadBuffer(out, 0, res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != float64(i)*float64(i) {
			t.Fatalf("res[%d] = %v", i, res[i])
		}
	}
}

func TestNDRangeSizeValidation(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("nop", false, func(*WorkItem) {})
	if _, err := q.EnqueueNDRange(k, 0, 1); err == nil {
		t.Error("zero global size should fail")
	}
	if _, err := q.EnqueueNDRange(k, 10, 3); err == nil {
		t.Error("non-multiple sizes should fail")
	}
	if _, err := q.EnqueueNDRange(k, 1024, 512); err == nil {
		t.Error("local size above device max (256) should fail")
	}
}

func TestWorkItemIndexing(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	const global, local = 48, 12
	var bad atomic.Int64
	k := NewKernel("idx", false, func(wi *WorkItem) {
		okID := wi.GlobalID() == wi.GroupID()*wi.LocalSize()+wi.LocalID()
		okSizes := wi.GlobalSize() == global && wi.LocalSize() == local
		if !okID || !okSizes {
			bad.Add(1)
		}
	})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, global, local); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d work-items saw inconsistent indexing", bad.Load())
	}
}

func TestBarrierReductionKernel(t *testing.T) {
	// Classic local-memory tree reduction: needs working barriers and
	// shared local memory to produce the right answer.
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	const groups, local = 4, 64
	in, _ := ctx.CreateBuffer("in", groups*local, 8)
	out, _ := ctx.CreateBuffer("out", groups, 8)
	data := make([]float64, groups*local)
	for i := range data {
		data[i] = 1
	}
	if _, err := q.EnqueueWriteBuffer(in, 0, data); err != nil {
		t.Fatal(err)
	}

	k := NewKernel("reduce", true, func(wi *WorkItem) {
		l := wi.LocalID()
		wi.StoreLocal(2, l, wi.Load(wi.Buffer(0), wi.GlobalID()))
		wi.Barrier()
		for stride := wi.LocalSize() / 2; stride > 0; stride /= 2 {
			if l < stride {
				s := wi.LoadLocal(2, l) + wi.LoadLocal(2, l+stride)
				wi.AddFlops(1)
				//binopt:ignore barrieruse the l < stride guard keeps writers (l < stride) and read targets (l+stride >= stride) in disjoint halves
				wi.StoreLocal(2, l, s)
			}
			wi.Barrier()
		}
		if l == 0 {
			wi.Store(wi.Buffer(1), wi.GroupID(), wi.LoadLocal(2, 0))
		}
	})
	if err := k.SetArgs(in, out, LocalAlloc{N: local, ElemBytes: 8}); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueNDRange(k, groups*local, local)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, groups)
	if _, err := q.EnqueueReadBuffer(out, 0, res); err != nil {
		t.Fatal(err)
	}
	for g, v := range res {
		if v != local {
			t.Errorf("group %d sum = %v, want %d", g, v, local)
		}
	}
	if ev.Stats.Barriers == 0 || ev.Stats.LocalReads == 0 || ev.Stats.LocalWrites == 0 {
		t.Errorf("local/barrier accounting missing: %+v", ev.Stats)
	}
}

func TestBarrierCorrectnessProperty(t *testing.T) {
	// For random group sizes, a two-phase write/read across a barrier must
	// always observe the neighbour's value (would race without a real
	// barrier).
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	f := func(rawLocal uint8) bool {
		local := 2 + int(rawLocal)%31
		out, err := ctx.CreateBuffer("o", local, 8)
		if err != nil {
			return false
		}
		defer out.Release()
		k := NewKernel("shift", true, func(wi *WorkItem) {
			l := wi.LocalID()
			wi.StoreLocal(1, l, float64(l))
			wi.Barrier()
			neighbour := wi.LoadLocal(1, (l+1)%wi.LocalSize())
			wi.Store(wi.Buffer(0), l, neighbour)
		})
		if err := k.SetArgs(out, LocalAlloc{N: local, ElemBytes: 8}); err != nil {
			return false
		}
		if _, err := q.EnqueueNDRange(k, local, local); err != nil {
			return false
		}
		res := make([]float64, local)
		if _, err := q.EnqueueReadBuffer(out, 0, res); err != nil {
			return false
		}
		for l := range res {
			if res[l] != float64((l+1)%local) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("oob", false, func(wi *WorkItem) {
		wi.Load(wi.Buffer(0), 99) // out of range
	})
	b, _ := ctx.CreateBuffer("small", 4, 8)
	if err := k.SetArgs(b); err != nil {
		t.Fatal(err)
	}
	_, err := q.EnqueueNDRange(k, 4, 4)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected out-of-range error, got %v", err)
	}
}

func TestKernelPanicWithBarriersDoesNotDeadlock(t *testing.T) {
	// One work-item fails before the barrier; the rest must unwind via the
	// broken-barrier path rather than deadlocking.
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("halffail", true, func(wi *WorkItem) {
		if wi.LocalID() == 3 {
			panic("injected failure")
		}
		wi.Barrier()
	})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	_, err := q.EnqueueNDRange(k, 8, 8)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("expected injected failure, got %v", err)
	}
}

func TestBarrierInSequentialKernelFails(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("misdeclared", false, func(wi *WorkItem) {
		wi.Barrier()
	})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 4, 4); err == nil {
		t.Error("Barrier in usesBarriers=false kernel should error")
	}
}

func TestLocalMemoryLimit(t *testing.T) {
	ctx, _ := newCtx(t) // device has 16 KiB local
	q := ctx.NewQueue()
	k := NewKernel("biglocal", false, func(*WorkItem) {})
	if err := k.SetArgs(LocalAlloc{N: 4096, ElemBytes: 8}); err != nil { // 32 KiB
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 4, 4); err == nil {
		t.Error("local alloc above device limit should fail")
	}
}

func TestLocalAllocValidation(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("badlocal", false, func(*WorkItem) {})
	if err := k.SetArgs(LocalAlloc{N: 0, ElemBytes: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 4, 4); err == nil {
		t.Error("zero-size local alloc should fail at enqueue")
	}
}

func TestSetArgsRejectsUnknownTypes(t *testing.T) {
	k := NewKernel("k", false, func(*WorkItem) {})
	if err := k.SetArgs("a string"); err == nil {
		t.Error("string arg should be rejected")
	}
	if err := k.SetArgs(1.5); err == nil {
		t.Error("float64 arg should be rejected: no kernel reads a float scalar")
	}
	if err := k.SetArgs(7, LocalAlloc{N: 1, ElemBytes: 8}); err != nil {
		t.Errorf("valid args rejected: %v", err)
	}
}

func TestArgAccessorsTypeMismatch(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	b, _ := ctx.CreateBuffer("b", 4, 8)
	k := NewKernel("mismatch", false, func(wi *WorkItem) {
		wi.Int(0) // arg 0 is a buffer
	})
	if err := k.SetArgs(b); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 1, 1); err == nil {
		t.Error("type mismatch should surface as error")
	}
	k2 := NewKernel("missing", false, func(wi *WorkItem) {
		wi.Int(5)
	})
	if err := k2.SetArgs(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k2, 1, 1); err == nil {
		t.Error("missing arg should surface as error")
	}
}

func TestScalarArgs(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	out, _ := ctx.CreateBuffer("out", 4, 8)
	k := NewKernel("scalar", false, func(wi *WorkItem) {
		wi.Store(wi.Buffer(0), wi.GlobalID(), 2.5*float64(wi.Int(1)))
	})
	if err := k.SetArgs(out, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 4, 2); err != nil {
		t.Fatal(err)
	}
	res := make([]float64, 4)
	if _, err := q.EnqueueReadBuffer(out, 0, res); err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != 10 {
			t.Errorf("res[%d] = %v, want 10", i, v)
		}
	}
}

func TestQueueEventLog(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	b, _ := ctx.CreateBuffer("b", 4, 8)
	write, err := q.EnqueueWriteBuffer(b, 0, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel("nop", false, func(*WorkItem) {})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	run, err := q.EnqueueNDRange(k, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(write.Command, "write") || !strings.HasPrefix(run.Command, "ndrange") {
		t.Errorf("event commands: %v, %v", write.Command, run.Command)
	}
	sum := write.Stats
	sum.Add(run.Stats)
	if got := q.Counters(); got != sum {
		t.Errorf("queue counters %+v, want the events' sum %+v", got, sum)
	}
}

func TestCountersAddAndString(t *testing.T) {
	a := Counters{Kernels: 1, GlobalReads: 10, HostWrites: 5, HostTransfers: 1, Flops: 7}
	b := Counters{Kernels: 2, GlobalWrites: 4, HostReads: 3, HostTransfers: 2, Barriers: 9}
	a.Add(b)
	if a.Kernels != 3 || a.GlobalBytes() != 14 || a.HostBytes() != 8 || a.Barriers != 9 {
		t.Errorf("Add result: %+v", a)
	}
	s := a.String()
	if !strings.Contains(s, "kernels=3") || !strings.Contains(s, "flops=7") {
		t.Errorf("String: %q", s)
	}
}

func TestSequentialAndBarrierSchedulesAgree(t *testing.T) {
	// The same barrier-free computation must give identical results under
	// both intra-group schedules.
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	run := func(usesBarriers bool) []float64 {
		out, err := ctx.CreateBuffer("o", 32, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Release()
		k := NewKernel("f", usesBarriers, func(wi *WorkItem) {
			x := float64(wi.GlobalID())
			wi.Store(wi.Buffer(0), wi.GlobalID(), math.Sqrt(x)+x)
		})
		if err := k.SetArgs(out); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRange(k, 32, 8); err != nil {
			t.Fatal(err)
		}
		res := make([]float64, 32)
		if _, err := q.EnqueueReadBuffer(out, 0, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(false)
	par := run(true)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("schedules disagree at %d: %v vs %v", i, seq[i], par[i])
		}
	}
}

func TestFinishIsSafeAnytime(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	q.Finish() // empty queue
	k := NewKernel("nop", false, func(*WorkItem) {})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(k, 4, 4); err != nil {
		t.Fatal(err)
	}
	q.Finish() // after work
	if got := q.Counters().Kernels; got != 1 {
		t.Errorf("kernels = %d", got)
	}
}

// TestNDRangeWorkGroupCeiling pins the CL_INVALID_WORK_GROUP_SIZE
// behaviour at the device boundary: a work-group exactly at
// MaxWorkGroupSize launches, one past it is rejected with an error
// naming both sizes, and a device reporting no limit accepts any group.
func TestNDRangeWorkGroupCeiling(t *testing.T) {
	ctx, dev := newCtx(t)
	q := ctx.NewQueue()
	k := NewKernel("nop", false, func(*WorkItem) {})
	max := dev.Info.MaxWorkGroupSize

	if _, err := q.EnqueueNDRange(k, max, max); err != nil {
		t.Fatalf("local size == device max (%d) must launch: %v", max, err)
	}
	_, err := q.EnqueueNDRange(k, 2*(max+1), max+1)
	if err == nil {
		t.Fatalf("local size %d > device max %d must be rejected", max+1, max)
	}
	for _, want := range []string{"local size", "exceeds device max", "257", "256"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	unlimited := testDevice()
	unlimited.MaxWorkGroupSize = 0
	uctx, err := NewContext(&Device{Info: unlimited})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uctx.NewQueue().EnqueueNDRange(k, 4096, 4096); err != nil {
		t.Errorf("device without a work-group limit must accept any local size: %v", err)
	}
}

// TestEventTimestamps: every command carries the four profiling
// timestamps in CL order (queued <= submit <= start <= end).
func TestEventTimestamps(t *testing.T) {
	ctx, _ := newCtx(t)
	q := ctx.NewQueue()
	b, _ := ctx.CreateBuffer("b", 8, 8)
	write, err := q.EnqueueWriteBuffer(b, 0, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel("nop", false, func(*WorkItem) {})
	if err := k.SetArgs(); err != nil {
		t.Fatal(err)
	}
	run, err := q.EnqueueNDRange(k, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	read, err := q.EnqueueReadBuffer(b, 0, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range []Event{write, run, read} {
		if ev.Queued.IsZero() || ev.End.IsZero() {
			t.Fatalf("event %d missing timestamps: %+v", i, ev)
		}
		if ev.Submit.Before(ev.Queued) || ev.Start.Before(ev.Submit) || ev.End.Before(ev.Start) {
			t.Errorf("event %d timestamps out of CL order: q=%v s=%v st=%v e=%v",
				i, ev.Queued, ev.Submit, ev.Start, ev.End)
		}
	}
}
