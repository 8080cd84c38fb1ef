package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"gpu-ivb", "backend:profile"},
		{":err=0.2", "backend:profile"},
		{"gpu-ivb:err", "key=value"},
		{"gpu-ivb:err=1.5", "probability"},
		{"gpu-ivb:err=-0.1", "probability"},
		{"gpu-ivb:lat=0", "positive duration"},
		{"gpu-ivb:lat=5ms@2", "probability"},
		{"gpu-ivb:stuck=-1", "non-negative"},
		{"gpu-ivb:stall=-5ms", "non-negative"},
		{"gpu-ivb:frob=1", "unknown profile"},
		{"gpu-ivb:stall=5ms", "no fault profile"},
		{"gpu-ivb:err=0.2;gpu-ivb:err=0.3", "more than one clause"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.spec, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseEmptySpecInactive(t *testing.T) {
	in, err := Parse("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Active() {
		t.Fatal("empty spec must be inactive")
	}
	if h := in.HookFor("gpu-ivb"); h != nil {
		t.Fatal("inactive injector handed out a hook")
	}
	var nilIn *Injector
	if nilIn.Active() || nilIn.HookFor("x") != nil {
		t.Fatal("nil injector must be safely inactive")
	}
}

func TestScopingAndWildcard(t *testing.T) {
	in, err := Parse("gpu-ivb:err=1;*:lat=1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Backends(); len(got) != 2 || got[0] != "*" || got[1] != "gpu-ivb" {
		t.Fatalf("Backends() = %v", got)
	}
	// Exact clause wins: gpu-ivb always errors.
	if err := in.HookFor("gpu-ivb")(); !errors.Is(err, ErrInjected) {
		t.Fatalf("gpu-ivb hook = %v, want ErrInjected", err)
	}
	// Everything else falls through to the wildcard (latency only).
	if err := in.HookFor("cpu-ref")(); err != nil {
		t.Fatalf("wildcard hook errored: %v", err)
	}
	if in.calls["cpu-ref"] != 1 || in.calls["gpu-ivb"] != 1 {
		t.Fatalf("calls = %d/%d, want 1/1", in.calls["cpu-ref"], in.calls["gpu-ivb"])
	}
}

// TestDeterministicSchedule: the same seed and call order must produce
// the same fault schedule; a different seed must (for this spec) not.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		in, err := Parse("gpu-ivb:err=0.3", seed)
		if err != nil {
			t.Fatal(err)
		}
		hook := in.HookFor("gpu-ivb")
		out := make([]bool, 200)
		for i := range out {
			out[i] = hook() != nil
		}
		return out
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical 200-call schedules")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	// 30% of 200 with generous slack: the draw is Bernoulli, not exact.
	if fails < 30 || fails > 90 {
		t.Fatalf("err=0.3 schedule failed %d/200 calls", fails)
	}
}

func TestLatencySpike(t *testing.T) {
	in, err := Parse("fpga-ivb:lat=20ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	hook := in.HookFor("fpga-ivb")
	start := time.Now()
	if err := hook(); err != nil {
		t.Fatalf("latency-only profile errored: %v", err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("lat=20ms call returned in %s", el)
	}
}

func TestStuckShard(t *testing.T) {
	in, err := Parse("cpu-ref:stuck=3,stall=1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	hook := in.HookFor("cpu-ref")
	for i := 0; i < 3; i++ {
		if err := hook(); err != nil {
			t.Fatalf("call %d before the wedge errored: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := hook(); !errors.Is(err, ErrInjected) {
			t.Fatalf("wedged call %d = %v, want ErrInjected", i, err)
		}
	}
	if got := in.calls["cpu-ref"]; got != 5 {
		t.Fatalf("calls = %d, want 5", got)
	}
}

// TestConcurrentHookRace exercises the shared PRNG path under the race
// detector.
func TestConcurrentHookRace(t *testing.T) {
	in, err := Parse("*:err=0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(name string) {
			hook := in.HookFor(name)
			for i := 0; i < 200; i++ {
				hook()
			}
			done <- struct{}{}
		}([]string{"a", "b", "c", "d"}[w])
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	var total int64
	for _, name := range []string{"a", "b", "c", "d"} {
		total += in.calls[name]
	}
	if total != 800 {
		t.Fatalf("total calls = %d, want 800", total)
	}
}
