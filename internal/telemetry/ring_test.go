package telemetry

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// serveSpanMix emits one priced request's worth of spans with the
// attribute shapes the serving tier emits: the handler's request span,
// the batch/queue/readback phase spans, one shard batch's compute span,
// and its device submission with three modelled commands. Values are
// built per call, as the emitters build them, so boxed values are
// counted too.
func serveSpanMix(tr *Tracer, i int) int {
	backend := "fpga-ivb"[:4+i%5]
	start := time.Unix(1700000000, int64(i))
	steps := 1024
	emit := func(name, proc, thread string, attrs map[string]any) {
		tr.Emit(Span{Req: uint64(i), Name: name, Proc: proc, Thread: thread, Start: start, Dur: time.Millisecond, Attrs: attrs})
	}
	emit("POST /v1/price", "host", "requests", map[string]any{"contracts": 10, "priced": 10, "joules": 0.066 + float64(i)})
	for _, ph := range []string{"batch", "queue", "readback"} {
		emit(ph, "host", "requests", map[string]any{"options": 10})
	}
	emit("compute", "host", "backend "+backend, map[string]any{
		"backend": backend, "options": 10, "reqs": []uint64{uint64(i)}, "steps": steps, "joules": 0.066 + float64(i),
	})
	emit("submission", "device:"+backend, "device clock", map[string]any{
		"backend": backend, "options": 10, "quad_groups": 3, "steps": steps,
	})
	for _, c := range []string{"write", "ndrange IV.B", "read"} {
		emit(c, "device:"+backend, "cl queue", map[string]any{"backend": backend, "queued_s": float64(i), "submit_s": float64(i) + 0.5})
	}
	return 9
}

// liveHeap reports the bytes in live heap objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedSpanHeap pins the live heap a full ring costs per
// retained span for the serving tier's span mix: the slot itself, the
// compacted attributes and the boxed attribute values. With each span's
// attribute map retained as emitted it was about 500 B.
func TestRetainedSpanHeap(t *testing.T) {
	const spans = 9 * 2048
	before := liveHeap()
	tr := New(spans)
	for i, n := 0, 0; n < spans; i++ {
		n += serveSpanMix(tr, i)
	}
	perSpan := float64(liveHeap()-before) / spans
	runtime.KeepAlive(tr)
	t.Logf("live heap per retained span: %.0f B", perSpan)
	if perSpan > 300 {
		t.Errorf("live heap per retained span = %.0f B, want <= 300", perSpan)
	}
}

// TestReadsReturnEmittedAttrs: Snapshot, Since and ExportSince hand
// back every span's attributes deep-equal to what was emitted — nil,
// empty and populated maps alike — and a caller mutating a returned map
// does not reach the ring.
func TestReadsReturnEmittedAttrs(t *testing.T) {
	tr := New(64)
	var want []Span
	for i := 0; i < 20; i++ {
		sp := Span{ID: uint64(i + 1), Name: "s" + strconv.Itoa(i), Start: time.Unix(1700000000, int64(i)), Clock: Wall}
		switch i % 3 {
		case 1:
			sp.Attrs = map[string]any{}
		case 2:
			sp.Attrs = map[string]any{"options": i, "backend": "fpga-ivb", "reqs": []uint64{1, 2}, "joules": 0.5}
		}
		tr.Emit(sp)
		want = append(want, sp)
	}

	if got := tr.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot differs from the emitted spans:\n got %v\nwant %v", got, want)
	}
	got, _, _ := tr.Since(5)
	if !reflect.DeepEqual(got, want[5:]) {
		t.Errorf("Since(5) differs from the emitted spans:\n got %v\nwant %v", got, want[5:])
	}
	got[len(got)-1].Attrs["options"] = -1
	if again, _, _ := tr.Since(5); !reflect.DeepEqual(again, want[5:]) {
		t.Error("mutating a returned attribute map changed the ring")
	}
	page := tr.ExportSince(0, "node-0")
	for i, sj := range page.Spans {
		if w := ToJSON(want[i]); !reflect.DeepEqual(sj, w) {
			t.Errorf("ExportSince span %d = %+v, want %+v", i, sj, w)
		}
	}
}

// TestChromeThroughRing: spans that pass through the ring render to
// the same Chrome bytes as the spans themselves.
func TestChromeThroughRing(t *testing.T) {
	tr := New(16)
	for _, sp := range fixedSpans() {
		tr.Emit(sp)
	}
	got, err := Chrome(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != chromeGolden {
		t.Errorf("Chrome of the ring's snapshot differs:\n got: %s\nwant: %s", got, chromeGolden)
	}
}

// TestResetReleasesSpans: Reset makes the discarded spans garbage at
// once; a span's attribute values must not stay reachable from the
// ring until a later emission overwrites its slot.
func TestResetReleasesSpans(t *testing.T) {
	tr := New(8)
	freed := make(chan struct{})
	func() {
		val := new([64]byte)
		runtime.SetFinalizer(val, func(*[64]byte) { close(freed) })
		tr.Emit(Span{Name: "held", Attrs: map[string]any{"payload": val}})
	}()
	tr.Reset()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(tr)
			return
		case <-deadline:
			t.Fatal("a span discarded by Reset is still reachable from the ring")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
