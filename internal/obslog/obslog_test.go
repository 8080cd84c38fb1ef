package obslog

import (
	"log/slog"
	"strings"
	"testing"
)

// TestNewCarriesComponent: lines carry the pinned component attribute.
func TestNewCarriesComponent(t *testing.T) {
	var b strings.Builder
	l := New(&b, "serve", slog.LevelInfo)
	l.Info("batch flushed", "options", 16)
	out := b.String()
	for _, want := range []string{"component=serve", "batch flushed", "options=16"} {
		if !strings.Contains(out, want) {
			t.Errorf("log line missing %q: %s", want, out)
		}
	}
}

// TestLevelFilter: lines below the handler level are dropped.
func TestLevelFilter(t *testing.T) {
	var b strings.Builder
	l := New(&b, "serve", slog.LevelInfo)
	l.Debug("noisy detail")
	if b.Len() != 0 {
		t.Errorf("debug line leaked through info level: %s", b.String())
	}
}

// TestWithTrace: trace and req attach when set, omit when zero, and a
// nil logger degrades to Nop instead of panicking.
func TestWithTrace(t *testing.T) {
	var b strings.Builder
	l := New(&b, "router", slog.LevelInfo)

	WithTrace(l, "4bf92f3577b34da6a3ce929d0e0e4736", 7).Info("forwarded")
	out := b.String()
	if !strings.Contains(out, "trace_id=4bf92f3577b34da6a3ce929d0e0e4736") || !strings.Contains(out, "req=7") {
		t.Errorf("trace attrs missing: %s", out)
	}

	b.Reset()
	WithTrace(l, "", 0).Info("untraced")
	out = b.String()
	if strings.Contains(out, "trace_id") || strings.Contains(out, "req=") {
		t.Errorf("zero trace attrs leaked: %s", out)
	}

	WithTrace(nil, "abc", 1).Info("to nowhere")
}

// TestNopAndOr: the Nop logger swallows everything; Or substitutes it
// for nil.
func TestNopAndOr(t *testing.T) {
	Nop().Error("discarded")
	Or(nil).Info("also discarded")
	var b strings.Builder
	l := New(&b, "x", slog.LevelInfo)
	if Or(l) != l {
		t.Error("Or replaced a non-nil logger")
	}
}

// TestParseLevel: the five flag names in any case, "" as info, and a
// bad value refused.
func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in    string
		level slog.Level
		on    bool
		ok    bool
	}{
		{"debug", slog.LevelDebug, true, true},
		{"INFO", slog.LevelInfo, true, true},
		{"", slog.LevelInfo, true, true},
		{" warn ", slog.LevelWarn, true, true},
		{"error", slog.LevelError, true, true},
		{"off", 0, false, true},
		{"verbose", 0, false, false},
	} {
		level, on, err := ParseLevel(tc.in)
		if (err == nil) != tc.ok || level != tc.level || on != tc.on {
			t.Errorf("ParseLevel(%q) = %v, %t, %v; want %v, %t, ok=%t", tc.in, level, on, err, tc.level, tc.on, tc.ok)
		}
	}
}
