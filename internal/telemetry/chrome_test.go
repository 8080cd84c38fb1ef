package telemetry

import (
	"encoding/json"
	"testing"
	"time"
)

// fixedSpans is a deterministic two-clock trace: one request with host
// phases and a modelled device command, built from pinned timestamps.
func fixedSpans() []Span {
	base := time.Unix(1700000000, 0).UTC()
	return []Span{
		{ID: 1, Req: 1, Name: "POST /v1/price", Proc: "host", Thread: "requests",
			Start: base, Dur: 5 * time.Millisecond, Clock: Wall,
			Attrs: map[string]any{"contracts": 2}},
		{ID: 2, Req: 1, Name: "batch", Proc: "host", Thread: "requests",
			Start: base.Add(100 * time.Microsecond), Dur: 400 * time.Microsecond, Clock: Wall},
		{ID: 3, Req: 1, Name: "compute", Proc: "host", Thread: "backend fpga-ivb",
			Start: base.Add(500 * time.Microsecond), Dur: 4 * time.Millisecond, Clock: Wall,
			Attrs: map[string]any{"backend": "fpga-ivb"}},
		{ID: 4, Req: 1, Name: "ndrange IV.B", Proc: "device:fpga-ivb", Thread: "cl queue",
			DevStart: 0.001, DevDur: 0.0005, Clock: Device,
			Attrs: map[string]any{"queued_s": 0.001}},
	}
}

// TestChromeGolden pins the exporter's exact output: lane numbering,
// metadata events, relative microsecond timestamps on both clocks, and
// sorted args. Any byte change here is a contract change for saved
// traces.
func TestChromeGolden(t *testing.T) {
	got, err := Chrome(fixedSpans())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != chromeGolden {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, chromeGolden)
	}
}

// chromeGolden is Chrome(fixedSpans()).
const chromeGolden = `{"traceEvents":[` +
	`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"device:fpga-ivb"}},` +
	`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"cl queue"}},` +
	`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"host"}},` +
	`{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"backend fpga-ivb"}},` +
	`{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":2,"args":{"name":"requests"}},` +
	`{"name":"ndrange IV.B","ph":"X","ts":1000,"dur":500,"pid":1,"tid":1,"args":{"clock":"device","queued_s":0.001,"req":1}},` +
	`{"name":"compute","ph":"X","ts":500,"dur":4000,"pid":2,"tid":1,"args":{"backend":"fpga-ivb","clock":"wall","req":1}},` +
	`{"name":"POST /v1/price","ph":"X","ts":0,"dur":5000,"pid":2,"tid":2,"args":{"clock":"wall","contracts":2,"req":1}},` +
	`{"name":"batch","ph":"X","ts":100,"dur":400,"pid":2,"tid":2,"args":{"clock":"wall","req":1}}` +
	`],"displayTimeUnit":"ms"}`

// TestChromeDeterministic: same spans in a different emission order
// produce lane assignments independent of that order, and repeated
// export is byte-identical.
func TestChromeDeterministic(t *testing.T) {
	a, err := Chrome(fixedSpans())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chrome(fixedSpans())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("repeated export differs")
	}
}

// TestChromeValidJSON: the export parses back and every complete event
// lands on a named lane.
func TestChromeValidJSON(t *testing.T) {
	out, err := Chrome(fixedSpans())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			pids[ev.Pid] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && !pids[ev.Pid] {
			t.Errorf("event %q on unnamed pid %d", ev.Name, ev.Pid)
		}
	}
}

// TestChromeEmpty: no spans still yields a valid document.
func TestChromeEmpty(t *testing.T) {
	out, err := Chrome(nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("empty export invalid: %v", err)
	}
}
