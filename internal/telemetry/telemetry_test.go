package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestSpanLifecycle: Begin/SetAttr/End produce one retained wall span
// with a measured duration and a fresh ID.
func TestSpanLifecycle(t *testing.T) {
	tr := New(16)
	a := tr.Begin("request", "host", "requests")
	if a.ID() == 0 {
		t.Fatal("active span has no ID")
	}
	a.SetAttr("contracts", 3)
	a.SetReq(a.ID())
	time.Sleep(time.Millisecond)
	a.End()

	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "request" || sp.Proc != "host" || sp.Thread != "requests" {
		t.Errorf("span identity wrong: %+v", sp)
	}
	if sp.Clock != Wall {
		t.Errorf("clock = %v, want wall", sp.Clock)
	}
	if sp.Dur <= 0 {
		t.Errorf("duration not measured: %v", sp.Dur)
	}
	if sp.Attrs["contracts"] != 3 {
		t.Errorf("attrs = %v", sp.Attrs)
	}
	if sp.Req != sp.ID {
		t.Errorf("req group = %d, want %d", sp.Req, sp.ID)
	}
	if tr.Emitted() != 1 || tr.Dropped() != 0 {
		t.Errorf("emitted=%d dropped=%d", tr.Emitted(), tr.Dropped())
	}
}

// TestRingWraparound: a full ring keeps the newest spans in order and
// counts the evictions. Run under -race this also certifies concurrent
// emission (the CI race step runs every test).
func TestRingWraparound(t *testing.T) {
	const capacity = 8
	tr := New(capacity)
	base := time.Unix(1700000000, 0)
	for i := 0; i < 20; i++ {
		tr.Emit(Span{Name: "s", Start: base.Add(time.Duration(i) * time.Second), Clock: Wall})
	}
	spans := tr.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("retained %d, want %d", len(spans), capacity)
	}
	for i, sp := range spans {
		want := base.Add(time.Duration(20-capacity+i) * time.Second)
		if !sp.Start.Equal(want) {
			t.Errorf("span %d start = %v, want %v (oldest-first order broken)", i, sp.Start, want)
		}
	}
	if got := tr.Dropped(); got != 20-capacity {
		t.Errorf("dropped = %d, want %d", got, 20-capacity)
	}
	if got := tr.Emitted(); got != 20 {
		t.Errorf("emitted = %d, want 20", got)
	}

	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("len after reset = %d", tr.Len())
	}
}

// TestConcurrentEmit hammers the ring from many goroutines; the race
// detector owns the correctness claim, the totals check the accounting.
func TestConcurrentEmit(t *testing.T) {
	tr := New(32)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Span{Name: "x", Clock: Wall})
				tr.Snapshot()
				tr.Len()
			}
		}()
	}
	wg.Wait()
	if got := tr.Emitted(); got != workers*per {
		t.Errorf("emitted = %d, want %d", got, workers*per)
	}
	if got := tr.Dropped(); got != workers*per-32 {
		t.Errorf("dropped = %d, want %d", got, workers*per-32)
	}
	if tr.Len() != 32 {
		t.Errorf("len = %d, want 32", tr.Len())
	}
}

// TestDisabledTracer: the nil tracer accepts every call as a no-op.
func TestDisabledTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Span{Name: "x"})
	a := tr.Begin("r", "host", "t")
	a.SetAttr("k", 1)
	a.End()
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.NextID() != 0 {
		t.Error("nil tracer retained state")
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Capacity() != 0 {
		t.Error("nil tracer has counters")
	}
	tr.Reset()
}
