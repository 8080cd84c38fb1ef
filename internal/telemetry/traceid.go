// Distributed trace identity: the W3C Trace Context subset the fleet
// speaks. A trace ID is 16 random bytes in lowercase hex, minted once
// per client request at whichever tier sees it first (router or node),
// and carried on every span that request touches — across process
// boundaries via a `traceparent` header on forwarded sub-batch
// requests. The trace ID, not the per-process span ring, is what lets
// the fleet aggregator stitch router and node spans into one timeline,
// and what an exemplar on a latency histogram points at.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// NewTraceID mints a fresh 128-bit trace ID as 32 lowercase hex digits.
// The all-zero ID (which W3C reserves as invalid) cannot be produced:
// the first byte is forced nonzero.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a broken
		// entropy source degrades to a constant, still-valid ID rather
		// than taking the serving path down.
		b = [16]byte{0xde, 0xad}
	}
	if b[0] == 0 {
		b[0] = 1
	}
	return hex.EncodeToString(b[:])
}

// FormatTraceParent renders a W3C traceparent header value:
// version 00, the 32-hex trace ID, the 16-hex parent span ID, and the
// sampled flag (everything this system traces is sampled).
func FormatTraceParent(trace string, parent uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", trace, parent)
}

// ParseTraceParent reads a traceparent header back into its trace ID
// and parent span ID. It accepts exactly the shape FormatTraceParent
// writes plus any future version byte (per the W3C spec, unknown
// versions parse as version 00). Malformed values report ok=false — a
// request with a mangled header is served untraced-parented rather than
// rejected.
func ParseTraceParent(header string) (trace string, parent uint64, ok bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) < 4 {
		return "", 0, false
	}
	version, traceID, spanID := parts[0], parts[1], parts[2]
	if len(version) != 2 || !isHex(version) || version == "ff" {
		return "", 0, false
	}
	if len(traceID) != 32 || !isHex(traceID) || traceID == strings.Repeat("0", 32) {
		return "", 0, false
	}
	if len(spanID) != 16 || !isHex(spanID) {
		return "", 0, false
	}
	parent, err := strconv.ParseUint(spanID, 16, 64)
	if err != nil || parent == 0 {
		return "", 0, false
	}
	return traceID, parent, true
}

// isHex reports whether s is entirely lowercase hex digits.
func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceKey carries a TraceContext through a context.Context.
type traceKey struct{}

// TraceContext is the request-scoped tracing identity that travels down
// the pricing pipeline: the distributed trace ID and the local request
// group (the ID of the span the HTTP handler opened, which child spans
// join via Span.Req).
type TraceContext struct {
	// Trace is the 32-hex distributed trace ID ("" when untraced).
	Trace string
	// Req is the local request group ID (0 when untraced).
	Req uint64
}

// ContextWithTrace tags ctx with a full trace context.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFromContext extracts the trace context; the zero value when
// untagged.
func TraceFromContext(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceKey{}).(TraceContext)
	return tc
}
