package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestNewTraceID: fresh IDs are 32 lowercase hex, never all-zero, and
// distinct across calls.
func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("trace ID %q not 32 lowercase hex", id)
		}
		if id == strings.Repeat("0", 32) {
			t.Fatal("all-zero trace ID minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestTraceParentRoundTrip: Format then Parse recovers the identity.
func TestTraceParentRoundTrip(t *testing.T) {
	trace := NewTraceID()
	header := FormatTraceParent(trace, 0xdeadbeef)
	got, parent, ok := ParseTraceParent(header)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) not ok", header)
	}
	if got != trace || parent != 0xdeadbeef {
		t.Errorf("round trip: got (%q, %#x), want (%q, %#x)", got, parent, trace, 0xdeadbeef)
	}
}

// TestParseTraceParentMalformed: every malformed shape reports ok=false
// instead of a partial parse.
func TestParseTraceParentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name   string
		header string
		ok     bool
	}{
		{"valid", valid, true},
		{"valid future version", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
		{"valid with whitespace", "  " + valid + "  ", true},
		{"empty", "", false},
		{"garbage", "hello world", false},
		{"too few fields", "00-4bf92f3577b34da6a3ce929d0e0e4736", false},
		{"version ff reserved", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"short trace id", "00-4bf92f35-00f067aa0ba902b7-01", false},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
		{"nonhex trace id", "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"short span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01", false},
		{"all-zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace, parent, ok := ParseTraceParent(tc.header)
			if ok != tc.ok {
				t.Fatalf("ParseTraceParent(%q) ok = %v, want %v", tc.header, ok, tc.ok)
			}
			if !ok && (trace != "" || parent != 0) {
				t.Errorf("failed parse leaked values (%q, %d)", trace, parent)
			}
		})
	}
}

// TestContextTrace: the full trace context round-trips through a
// context, and an untagged context yields the zero value.
func TestContextTrace(t *testing.T) {
	ctx := context.Background()
	if tc := TraceFromContext(ctx); tc != (TraceContext{}) {
		t.Errorf("untagged ctx trace = %+v", tc)
	}
	want := TraceContext{Trace: NewTraceID(), Req: 7}
	if got := TraceFromContext(ContextWithTrace(ctx, want)); got != want {
		t.Errorf("trace context = %+v, want %+v", got, want)
	}
}

// TestSince: cursor-based export pages through emissions, survives ring
// wraparound with an honest missed count, and never double-delivers.
func TestSince(t *testing.T) {
	const capacity = 8
	tr := New(capacity)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			tr.Emit(Span{Name: "s", Clock: Wall})
		}
	}

	spans, cursor, missed := tr.Since(0)
	if len(spans) != 0 || cursor != 0 || missed != 0 {
		t.Fatalf("empty ring: got %d spans, cursor %d, missed %d", len(spans), cursor, missed)
	}

	emit(3)
	spans, cursor, missed = tr.Since(cursor)
	if len(spans) != 3 || missed != 0 {
		t.Fatalf("first page: %d spans, missed %d, want 3, 0", len(spans), missed)
	}

	// Nothing new: same cursor comes back, no spans re-delivered.
	spans, cursor2, missed := tr.Since(cursor)
	if len(spans) != 0 || cursor2 != cursor || missed != 0 {
		t.Fatalf("idle poll: %d spans, cursor %d→%d, missed %d", len(spans), cursor, cursor2, missed)
	}

	// Overflow the ring: 3 already read + 20 new = 23 emitted, ring
	// holds the newest 8, so 20-8=12 of the unread ones were lost.
	emit(20)
	spans, cursor, missed = tr.Since(cursor)
	if len(spans) != capacity {
		t.Fatalf("post-wrap page: %d spans, want %d", len(spans), capacity)
	}
	if missed != 12 {
		t.Fatalf("missed = %d, want 12", missed)
	}

	// A stale cursor far in the future returns nothing (a restarted
	// node handing back a cursor from a previous incarnation).
	if spans, _, missed := tr.Since(cursor + 1000); len(spans) != 0 || missed != 0 {
		t.Fatalf("future cursor: %d spans, missed %d", len(spans), missed)
	}

	// Reset keeps the sequence monotone: old cursors stay valid, the
	// discarded spans count as missed, not re-delivered.
	mid := cursor
	emit(4)
	tr.Reset()
	emit(2)
	spans, _, missed = tr.Since(mid)
	if len(spans) != 2 || missed != 4 {
		t.Fatalf("after reset: %d spans, missed %d, want 2, 4", len(spans), missed)
	}

	// Nil tracer: Since echoes the cursor back.
	var nilTr *Tracer
	if spans, cursor, missed := nilTr.Since(5); spans != nil || cursor != 5 || missed != 0 {
		t.Error("nil tracer Since not a no-op")
	}
}

// TestSinceSeparateCursors: two pollers with independent cursors each
// see every span exactly once.
func TestSinceSeparateCursors(t *testing.T) {
	tr := New(16)
	var curA, curB uint64
	var gotA, gotB int
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			tr.Emit(Span{Name: "s", Clock: Wall})
		}
		spans, next, _ := tr.Since(curA)
		gotA += len(spans)
		curA = next
		if round%2 == 1 { // B polls half as often
			spans, next, _ = tr.Since(curB)
			gotB += len(spans)
			curB = next
		}
	}
	spans, _, _ := tr.Since(curB)
	gotB += len(spans)
	if gotA != 15 || gotB != 15 {
		t.Errorf("poller A saw %d, B saw %d, want 15 each", gotA, gotB)
	}
}

// TestExportRoundTrip: wire form preserves identity, clocks, and attrs;
// skew correction shifts wall starts onto the receiver's timeline.
func TestExportRoundTrip(t *testing.T) {
	tr := New(8)
	start := time.Unix(1700000000, 123)
	tr.Emit(Span{
		ID: 9, Req: 4, Trace: "4bf92f3577b34da6a3ce929d0e0e4736",
		Name: "compute", Proc: "host", Thread: "backend fpga-ivb",
		Start: start, Dur: 250 * time.Microsecond, Clock: Wall,
		Attrs: map[string]any{"options": 16},
	})
	tr.Emit(Span{
		ID: 10, Name: "ndrange IV.B", Proc: "device:fpga-ivb", Thread: "cl queue",
		DevStart: 1.5, DevDur: 0.25, Clock: Device,
	})

	ex := tr.ExportSince(0, "node0")
	if ex.Node != "node0" || ex.Missed != 0 || len(ex.Spans) != 2 {
		t.Fatalf("export = %+v", ex)
	}
	if ex.NowUnixNano == 0 {
		t.Error("export carries no clock reading")
	}

	skew := 3 * time.Second
	wall := FromJSON(ex.Spans[0], skew)
	if wall.ID != 9 || wall.Req != 4 || wall.Trace != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("wall identity lost: %+v", wall)
	}
	if wall.Clock != Wall || wall.Dur != 250*time.Microsecond {
		t.Errorf("wall clock/dur lost: %+v", wall)
	}
	if want := start.Add(-skew); !wall.Start.Equal(want) {
		t.Errorf("skew correction: start %v, want %v", wall.Start, want)
	}

	dev := FromJSON(ex.Spans[1], skew)
	//binopt:ignore floateq modelled device times round-trip bit-exactly through JSON
	if dev.Clock != Device || dev.DevStart != 1.5 || dev.DevDur != 0.25 {
		t.Errorf("device span mangled: %+v", dev)
	}
	if !dev.Start.IsZero() {
		t.Error("device span grew a wall start")
	}

	// Incremental: a second export from the returned cursor is empty.
	if ex2 := tr.ExportSince(ex.Next, "node0"); len(ex2.Spans) != 0 {
		t.Errorf("re-export delivered %d spans", len(ex2.Spans))
	}
}

// TestActiveSetTrace: the trace ID sticks to the emitted span and the
// nil tracer stays inert.
func TestActiveSetTrace(t *testing.T) {
	tr := New(4)
	a := tr.Begin("request", "host", "requests")
	a.SetTrace("4bf92f3577b34da6a3ce929d0e0e4736")
	if a.Trace() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("Trace() = %q", a.Trace())
	}
	a.End()
	if got := tr.Snapshot()[0].Trace; got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("emitted span trace = %q", got)
	}

	var nilTr *Tracer
	na := nilTr.Begin("r", "h", "t")
	na.SetTrace("feed")
	na.End()
}
