// Package obslog is the serving tier's structured logging front door: a
// thin layer over log/slog that pins the attribute vocabulary every
// binary and package shares (component, node, trace_id, req), so a
// fleet's interleaved logs grep cleanly by trace ID straight into the
// merged Chrome trace. It deliberately adds no levels, sinks, or config
// beyond slog's own — the value is the shared vocabulary and the
// nil-safe disabled mode, not a logging framework.
package obslog

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Attribute keys shared across the fleet. Using the constants keeps the
// vocabulary greppable and typo-proof at call sites.
const (
	// KeyComponent names the subsystem ("serve", "router", "loadgen").
	KeyComponent = "component"
	// KeyNode names the fleet member a log line came from.
	KeyNode = "node"
	// KeyTrace is the 32-hex distributed trace ID.
	KeyTrace = "trace_id"
	// KeyReq is the process-local request group ID.
	KeyReq = "req"
)

// New builds a text-format logger writing to w, tagged with the
// component name. Level filters at and above; pass slog.LevelInfo for
// normal operation, slog.LevelDebug for verbose runs.
func New(w io.Writer, component string, level slog.Level) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With(KeyComponent, component)
}

// ParseLevel maps a -log-level flag value onto slog's scale: debug,
// info (also ""), warn, error or off, in any case. The second return is
// false for "off": structured logging disabled outright, not merely
// filtered.
func ParseLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, true, nil
	case "info", "":
		return slog.LevelInfo, true, nil
	case "warn":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	case "off":
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("-log-level must be debug, info, warn, error or off, got %q", s)
}

// Nop returns an enabled-but-silent logger: every call is accepted and
// discarded. Call sites hold a *slog.Logger unconditionally; disabled
// logging is this, not a nil check at every call.
func Nop() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// Or returns l, or the Nop logger when l is nil — the one nil check,
// made once where a logger enters a subsystem instead of at every log
// site.
func Or(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return Nop()
}

// WithTrace returns l with the request's tracing identity attached, so
// every subsequent line correlates to spans and exemplars. Zero-valued
// fields are omitted rather than logged as empty.
func WithTrace(l *slog.Logger, trace string, req uint64) *slog.Logger {
	if l == nil {
		return Nop()
	}
	if trace != "" {
		l = l.With(KeyTrace, trace)
	}
	if req != 0 {
		l = l.With(KeyReq, req)
	}
	return l
}
