// Package omhist is a fixed-bucket concurrent histogram that renders in
// the OpenMetrics exposition format with per-bucket exemplars: each
// bucket remembers the most recent trace-tagged observation that landed
// in it, and the rendered `_bucket` line carries it as
// `# {trace_id="..."} value timestamp`. That is the jump an operator
// makes from "the p99 spiked" to the one merged fleet trace that shows
// where the time (and the joules) went — aggregates locate the symptom,
// the exemplar names a culprit.
//
// It replaces the quantile-gauge rendering the serving tier started
// with: cumulative buckets aggregate correctly across processes (the
// fleet roll-up can sum them; quantiles cannot be averaged), and the
// bucket layout is where exemplars legally attach.
package omhist

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Exemplar is one trace-tagged observation pinned to a bucket.
type Exemplar struct {
	// TraceID is the 32-hex distributed trace ID of the request that
	// produced the observation.
	TraceID string
	// Value is the observed value (same unit as the histogram).
	Value float64
	// UnixNano is when the observation happened.
	UnixNano int64
}

// Histogram is a fixed-bucket concurrent histogram with optional
// per-bucket exemplars. All methods are safe for concurrent use; a nil
// *Histogram is a valid no-op sink so disabled paths need no branching.
type Histogram struct {
	bounds    []float64      // upper bounds, ascending
	counts    []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
	n         atomic.Int64
}

// New builds a histogram over the given ascending upper bounds. The
// +Inf overflow bucket is implicit.
func New(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// ExpBuckets builds bounds growing geometrically from lo by factor
// until reaching hi (exclusive).
func ExpBuckets(lo, hi, factor float64) []float64 {
	var b []float64
	for v := lo; v < hi; v *= factor {
		b = append(b, v)
	}
	return b
}

// Observe records one sample with no exemplar.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one sample; when traceID is non-empty the
// containing bucket's exemplar is replaced with this observation, so
// each bucket always points at a recent representative trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, UnixNano: time.Now().UnixNano()})
	}
}

// Count reports the total observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Mean returns the average observed value, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return h.sum.load() / float64(n)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the containing bucket. It returns 0 when the histogram is
// empty. It is the in-process twin of a scraper's histogram_quantile
// over the rendered buckets, so tests can check a bucket layout resolves
// the latencies it is meant to.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo * 2
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (target - cum) / c
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Render writes the OpenMetrics exposition lines for the histogram:
// cumulative `_bucket{le="..."}` lines (exemplar-suffixed where one is
// pinned), then `_count` and `_sum`. labels is the pre-rendered extra
// label set without braces ("" or e.g. `phase="batch"`); le is appended
// after it so scrapers see one flat label set.
func (h *Histogram) Render(b *strings.Builder, name, labels string) {
	if h == nil {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatBound(h.bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d", name, labels, sep, le, cum)
		if ex := h.exemplars[i].Load(); ex != nil {
			fmt.Fprintf(b, " # {trace_id=%q} %.6g %.3f", ex.TraceID, ex.Value, float64(ex.UnixNano)/1e9)
		}
		b.WriteByte('\n')
	}
	var suffix string
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.n.Load())
	fmt.Fprintf(b, "%s_sum%s %.6g\n", name, suffix, h.sum.load())
}

// formatBound renders a bucket bound in shortest "%g" form, pinned in
// one place so every exposition and every test grep agree on it.
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}

// atomicFloat is a float64 accumulator built on a bits CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }
