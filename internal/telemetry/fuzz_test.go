package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

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

// maxFuzzPage bounds FuzzSpanExport's input, and with it the ring the
// decoded page is emitted into: every span costs at least two bytes of
// JSON, so the ring holds at most maxFuzzPage/2 slots.
const maxFuzzPage = 1 << 16

// FuzzSpanExport feeds arbitrary /debug/spans pages through the path
// the fleet aggregator and a node's span ring share: decode the Export
// page, FromJSON each span, Emit it into a ring sized to the page, and
// ExportSince it back out. Nothing may panic, allocation stays bounded
// by the page size, and every span round-trips: the re-exported wire
// span equals ToJSON of the span FromJSON produced (with the ID Emit
// assigns when the page carried none), and decodes back to that span.
func FuzzSpanExport(f *testing.F) {
	tr := New(8)
	for _, sp := range fixedSpans() {
		tr.Emit(sp)
	}
	page, err := json.Marshal(tr.ExportSince(0, "node-0"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page)
	for _, seed := range []string{
		`{"node":"node-1","now_unix_nano":1,"next":3,"missed":0,"spans":[{"id":0,"name":"compute","proc":"host","thread":"backend gpu-ivb","start_unix_nano":1700000000000000000,"dur_ns":250000,"clock":"wall","attrs":{"backend":"gpu-ivb","reqs":[1,2],"joules":0.25}}]}`,
		`{"spans":[{"id":7,"name":"ndrange","clock":"device","dev_start":0.5,"dev_dur":1e-9,"start_unix_nano":5,"attrs":{}}]}`,
		`{"spans":[{"id":1,"clock":"martian","attrs":{"nested":{"a":[null,true,"x"]}}},{"id":1,"clock":"wall","attrs":null}]}`,
		`{"spans":[{"start_unix_nano":-9223372036854775808,"dur_ns":9223372036854775807}]}`,
		`{"spans":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		if len(page) > maxFuzzPage {
			return
		}
		var in Export
		if err := json.Unmarshal(page, &in); err != nil {
			return
		}
		tr := New(len(in.Spans))
		want := make([]Span, len(in.Spans))
		for i, sj := range in.Spans {
			want[i] = FromJSON(sj, 0)
			tr.Emit(want[i])
		}
		out := tr.ExportSince(0, in.Node)
		if out.Missed != 0 || out.Next != uint64(len(want)) || len(out.Spans) != len(want) {
			t.Fatalf("exported %d spans (next %d, missed %d) of %d emitted", len(out.Spans), out.Next, out.Missed, len(want))
		}
		for i, got := range out.Spans {
			w := want[i]
			if w.ID == 0 {
				if got.ID == 0 {
					t.Fatalf("span %d: Emit assigned no ID", i)
				}
				w.ID = got.ID
			}
			if wj := ToJSON(w); !reflect.DeepEqual(got, wj) {
				t.Fatalf("span %d re-exported as %+v, want %+v", i, got, wj)
			}
			if back := FromJSON(got, 0); !reflect.DeepEqual(back, w) {
				t.Fatalf("span %d decodes back to %+v, want %+v", i, back, w)
			}
		}
	})
}
