// Package telemetry is the span-based tracing spine of the serving
// tier: every priced option leaves a timeline of host phases (batch
// assembly, shard queue, compute, readback) and modelled device
// commands (the analogue of CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,
// END}) that downstream sinks — the /debug/trace Chrome-trace endpoint,
// the /metrics phase decomposition — render for the operator.
//
// Spans carry one of two clocks. Wall spans are real host time measured
// with time.Now. Device spans live on a per-backend *modelled* device
// clock: a virtual monotonic timeline, in seconds, advanced by the
// platform engine's perf estimate as options are priced, so the trace
// shows what the modelled DE4/GTX660/Xeon would have been doing — the
// two-clock discipline the paper's energy attribution (§V) needs, where
// host wall time and device busy time are different quantities.
//
// The tracer itself is a bounded ring: emitting a span is one short
// mutex hold and one struct copy, old spans are overwritten (and
// counted) rather than growing memory, and a nil *Tracer is a valid
// disabled tracer whose every method is a cheap no-op. The ring keeps
// each span's attributes as a compact key/value slice rather than the
// emitter's map, and allocates its slots a chunk at a time as spans
// first reach them, because the ring's live heap is what the serving
// process's resident set tracks.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock distinguishes which timeline a span's timestamps live on.
type Clock uint8

const (
	// Wall spans are measured host time (time.Now).
	Wall Clock = iota
	// Device spans are modelled device time: DevStart/DevDur seconds on
	// the owning backend's virtual device clock.
	Device
)

// String names the clock for trace args and tests.
func (c Clock) String() string {
	if c == Device {
		return "device"
	}
	return "wall"
}

// Span is one completed interval on one timeline. Spans are emitted
// whole (start and duration known) rather than opened and closed in the
// ring, so the hot path never holds a ring slot across a computation.
type Span struct {
	// ID is unique per tracer; Req groups every span of one client
	// request (zero when the span is not request-scoped).
	ID  uint64
	Req uint64
	// Trace is the 32-hex distributed trace ID stitching this span to
	// the same client request on other processes (empty when the span
	// is purely local). See traceid.go.
	Trace string
	// Name is the span label, e.g. "batch", "queue", "compute",
	// "ndrange IV.B".
	Name string
	// Proc and Thread place the span on a Chrome trace track: Proc is
	// the process lane ("host" or "device:fpga-ivb"), Thread the thread
	// lane within it ("requests", "backend fpga-ivb", "cl queue").
	Proc   string
	Thread string
	// Start and Dur are the wall-clock interval (Clock == Wall).
	Start time.Time
	Dur   time.Duration
	// DevStart and DevDur are seconds on the modelled device clock
	// (Clock == Device).
	DevStart float64
	DevDur   float64
	Clock    Clock
	// Attrs are exported into the Chrome trace event's args. Keys are
	// sorted at export, so map iteration order never leaks into output.
	Attrs map[string]any
}

// attr is one retained span attribute.
type attr struct {
	key string
	val any
}

// slot is one retained span: the Span's fields, except that its
// Attrs map is kept as attrs, an exact-size slice of the same pairs
// (nil when Attrs was nil). A serve span's map costs about 350 B live,
// its slice 32 B per pair, and the ring holds tens of thousands of
// spans. A slot's attrs are never written after Emit, so readers may
// expand them outside mu.
type slot struct {
	id, req          uint64
	trace, name      string
	proc, thread     string
	start            time.Time
	dur              time.Duration
	devStart, devDur float64
	attrs            []attr
	clock            Clock
}

// newSlot compacts an emitted span.
func newSlot(sp Span) slot {
	sl := slot{
		id: sp.ID, req: sp.Req, trace: sp.Trace, name: sp.Name, proc: sp.Proc, thread: sp.Thread,
		start: sp.Start, dur: sp.Dur, devStart: sp.DevStart, devDur: sp.DevDur, clock: sp.Clock,
	}
	if sp.Attrs != nil {
		sl.attrs = make([]attr, 0, len(sp.Attrs))
		for k, v := range sp.Attrs {
			sl.attrs = append(sl.attrs, attr{k, v})
		}
	}
	return sl
}

// expand rebuilds the span as it was emitted, attribute map included.
func (sl *slot) expand() Span {
	sp := Span{
		ID: sl.id, Req: sl.req, Trace: sl.trace, Name: sl.name, Proc: sl.proc, Thread: sl.thread,
		Start: sl.start, Dur: sl.dur, DevStart: sl.devStart, DevDur: sl.devDur, Clock: sl.clock,
	}
	if sl.attrs != nil {
		sp.Attrs = make(map[string]any, len(sl.attrs))
		for _, a := range sl.attrs {
			sp.Attrs[a.key] = a.val
		}
	}
	return sp
}

// expandAll rebuilds copied-out slots into spans, outside the ring lock.
func expandAll(slots []slot) []Span {
	out := make([]Span, len(slots))
	for i := range slots {
		out[i] = slots[i].expand()
	}
	return out
}

// Tracer is a bounded, concurrency-safe span sink. The zero capacity
// and the nil tracer are both valid: New clamps capacity to at least 1,
// and every method is nil-safe so call sites need no branching.
type Tracer struct {
	capacity int
	ids      atomic.Uint64
	emitted  atomic.Int64
	dropped  atomic.Int64

	mu sync.Mutex
	// chunks hold the ring's slots, ringChunk to a chunk, each
	// allocated when emission first reaches it: a large make is
	// resident at once, so a ring that never fills must not pay for its
	// whole capacity up front.
	chunks [][]slot
	// seq counts emissions under mu: the emission sequence number of
	// the newest span, and the cursor Since paginates on. Sequence
	// numbers are dense, so the k-th oldest of L retained spans has
	// seq-L+1+k and the ring stores none. Span IDs cannot serve here —
	// Begin assigns them before the region runs, so emission order and
	// ID order diverge.
	seq  uint64
	next int
	full bool
}

// New builds a tracer retaining up to capacity spans (minimum 1).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity, chunks: make([][]slot, (capacity+ringChunk-1)/ringChunk)}
}

// ringChunk is the number of slots the ring allocates at a time.
const ringChunk = 4096

// at returns ring position i, allocating its chunk on first use; the
// last chunk holds only the capacity's remainder. Caller holds t.mu.
func (t *Tracer) at(i int) *slot {
	c := &t.chunks[i/ringChunk]
	if *c == nil {
		*c = make([]slot, min(ringChunk, t.capacity-i/ringChunk*ringChunk))
	}
	return &(*c)[i%ringChunk]
}

// Enabled reports whether spans emitted here are retained. A nil tracer
// is the disabled tracer.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity reports the ring size (zero for the disabled tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// NextID returns a fresh span/request ID (zero for the disabled
// tracer).
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Emit records one completed span, assigning an ID if the caller left
// it zero. When the ring is full the oldest span is overwritten and
// counted as dropped.
func (t *Tracer) Emit(sp Span) {
	if t == nil {
		return
	}
	if sp.ID == 0 {
		sp.ID = t.ids.Add(1)
	}
	sl := newSlot(sp)
	t.emitted.Add(1)
	t.mu.Lock()
	if t.full {
		t.dropped.Add(1)
	}
	t.seq++
	*t.at(t.next) = sl
	t.next++
	if t.next == t.capacity {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return t.capacity
	}
	return t.next
}

// Emitted reports the total spans ever emitted.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	return t.emitted.Load()
}

// Dropped reports the spans overwritten because the ring was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Snapshot copies the retained spans out in emission order, oldest
// first. It does not clear the ring.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	slots := t.after(0)
	t.mu.Unlock()
	return expandAll(slots)
}

// after copies out, in emission order, the retained slots whose
// sequence numbers exceed cursor. Caller holds t.mu.
func (t *Tracer) after(cursor uint64) []slot {
	retained, oldest := t.next, 0
	if t.full {
		retained, oldest = t.capacity, t.next
	}
	// The oldest retained slot has sequence number seq-retained+1.
	skip := 0
	if first := t.seq - uint64(retained); cursor > first {
		skip = int(cursor - first)
	}
	out := make([]slot, 0, retained-skip)
	for k := skip; k < retained; k++ {
		out = append(out, *t.at((oldest + k) % t.capacity))
	}
	return out
}

// Since returns the retained spans emitted after the cursor, in
// emission order, plus the new cursor to poll from and the number of
// spans that were emitted after the cursor but already overwritten
// (ring wraparound) or discarded (Reset) before this call. A fresh
// consumer starts at cursor 0. Unlike Snapshot+Reset polling, two
// pollers with their own cursors never race each other, and a poll
// never destroys data another consumer still wants.
func (t *Tracer) Since(cursor uint64) (spans []Span, next uint64, missed uint64) {
	if t == nil {
		return nil, cursor, 0
	}
	t.mu.Lock()
	next = t.seq
	if cursor >= t.seq {
		t.mu.Unlock()
		return nil, next, 0
	}
	slots := t.after(cursor)
	t.mu.Unlock()
	missed = (next - cursor) - uint64(len(slots))
	if len(slots) > 0 {
		spans = expandAll(slots)
	}
	return spans, next, missed
}

// Reset discards the retained spans (counters keep accumulating). The
// chunks are dropped too, so the discarded spans and their attribute
// values are garbage at once rather than when new spans overwrite them.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	clear(t.chunks)
	t.next = 0
	t.full = false
	t.mu.Unlock()
}

// Active is an in-progress wall span, for call sites that bracket a
// region instead of computing timestamps themselves (request handlers).
type Active struct {
	t  *Tracer
	sp Span
}

// Begin opens a wall span now. On a disabled tracer the returned Active
// is inert.
func (t *Tracer) Begin(name, proc, thread string) *Active {
	a := &Active{t: t}
	if t == nil {
		return a
	}
	a.sp = Span{ID: t.NextID(), Name: name, Proc: proc, Thread: thread, Start: time.Now(), Clock: Wall}
	return a
}

// ID returns the span's ID (zero when inert), usable as the Req of
// child spans.
func (a *Active) ID() uint64 { return a.sp.ID }

// SetAttr attaches one attribute.
func (a *Active) SetAttr(key string, value any) {
	if a.t == nil {
		return
	}
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]any, 4)
	}
	a.sp.Attrs[key] = value
}

// SetReq assigns the span to a request group.
func (a *Active) SetReq(req uint64) { a.sp.Req = req }

// SetTrace stitches the span to a distributed trace ID.
func (a *Active) SetTrace(trace string) { a.sp.Trace = trace }

// Trace returns the span's distributed trace ID ("" when inert or
// unstitched).
func (a *Active) Trace() string { return a.sp.Trace }

// End closes and emits the span.
func (a *Active) End() {
	if a.t == nil {
		return
	}
	a.sp.Dur = time.Since(a.sp.Start)
	a.t.Emit(a.sp)
}
