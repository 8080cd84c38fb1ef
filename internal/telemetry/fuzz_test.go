package telemetry

import "testing"

// FuzzParseTraceParent feeds arbitrary headers to the traceparent parser
// every node and the router run on inbound requests. It must never
// panic, and a header it accepts must round-trip: formatting the parsed
// trace and parent span and parsing that yields the same pair.
func FuzzParseTraceParent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"  00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01  ",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-4bf92f35-00f067aa0ba902b7-01",
		"hello world",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		trace, parent, ok := ParseTraceParent(header)
		if !ok {
			if trace != "" || parent != 0 {
				t.Fatalf("ParseTraceParent(%q) failed but leaked (%q, %d)", header, trace, parent)
			}
			return
		}
		formatted := FormatTraceParent(trace, parent)
		trace2, parent2, ok := ParseTraceParent(formatted)
		if !ok || trace2 != trace || parent2 != parent {
			t.Fatalf("ParseTraceParent(%q) = (%q, %d), but its formatting %q parses to (%q, %d, %v)",
				header, trace, parent, formatted, trace2, parent2, ok)
		}
	})
}
