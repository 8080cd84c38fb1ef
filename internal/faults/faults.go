// Package faults is a deterministic, seedable fault injector for the
// serving stack's simulated substrates. A production pool of DE4s,
// GTX660s and Xeons would see transient PCIe errors, driver resets and
// wedged command queues; the modelled devices never misbehave on their
// own, so the fault-tolerance machinery in internal/serve (shard
// circuit breakers, retry-with-failover, honest Retry-After under
// partial outage) would otherwise be untestable. An Injector compiles a
// small spec grammar into per-backend fault profiles and hands out
// hooks that accel.Engine consults before pricing; the same seed and
// call order reproduce the same fault schedule, so chaos runs are
// replayable.
//
// Spec grammar (clauses separated by ';', profiles by ','):
//
//	spec    := clause (';' clause)*
//	clause  := backend ':' profile (',' profile)*
//	backend := registry name | '*'            (scope; '*' matches any)
//	profile := 'err=' RATE                    fail pricing with probability RATE
//	         | 'lat=' DUR ['@' RATE]          add DUR latency (probability RATE, default 1)
//	         | 'stuck=' N                     after N calls the shard wedges:
//	                                          every call stalls, then errors
//	         | 'stall=' DUR                   wedged-call stall (default 50ms)
//
// Examples:
//
//	gpu-ivb:err=0.2                   20% of GPU pricings fail
//	fpga-ivb:lat=5ms@0.1              10% of FPGA pricings take 5ms longer
//	cpu-ref:stuck=100,stall=20ms      Xeon shard wedges after 100 options
//	*:err=0.05                        5% error rate everywhere
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks every failure the injector produces, so consumers
// can tell a simulated outage from a real pricing error with errors.Is.
var ErrInjected = errors.New("injected fault")

// defaultStall is how long a wedged shard's calls block before erroring
// when the clause sets stuck= without stall=.
const defaultStall = 50 * time.Millisecond

// rule is one backend's compiled fault profile.
type rule struct {
	errRate    float64       // probability a call fails
	latency    time.Duration // added latency when the spike fires
	latRate    float64       // probability of the latency spike
	stuckAfter int64         // calls before the shard wedges (-1: never)
	stall      time.Duration // wedged-call stall before the error
}

// Injector owns the compiled rules and the seeded PRNG. All decisions
// draw from one generator under a mutex, so a fixed seed plus a fixed
// call order yields a fixed fault schedule.
type Injector struct {
	spec string
	seed int64

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*rule
	calls map[string]int64 // per-backend hook invocations, drives stuck=
}

// Parse compiles a fault spec. An empty spec yields an inactive
// injector (Active reports false, HookFor returns nil for everything).
func Parse(spec string, seed int64) (*Injector, error) {
	in := &Injector{
		spec:  spec,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*rule),
		calls: make(map[string]int64),
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		backend, profiles, ok := strings.Cut(clause, ":")
		backend = strings.TrimSpace(backend)
		if !ok || backend == "" {
			return nil, fmt.Errorf("faults: clause %q: want backend:profile[,profile...]", clause)
		}
		if _, dup := in.rules[backend]; dup {
			return nil, fmt.Errorf("faults: backend %q scoped by more than one clause", backend)
		}
		r := &rule{stuckAfter: -1, stall: defaultStall}
		for _, p := range strings.Split(profiles, ",") {
			p = strings.TrimSpace(p)
			key, val, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("faults: clause %q: profile %q is not key=value", clause, p)
			}
			switch key {
			case "err":
				rate, err := parseRate(val)
				if err != nil {
					return nil, fmt.Errorf("faults: clause %q: err=%s: %w", clause, val, err)
				}
				r.errRate = rate
			case "lat":
				durStr, rateStr, hasRate := strings.Cut(val, "@")
				d, err := time.ParseDuration(durStr)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("faults: clause %q: lat=%s: want a positive duration", clause, val)
				}
				r.latency, r.latRate = d, 1
				if hasRate {
					rate, err := parseRate(rateStr)
					if err != nil {
						return nil, fmt.Errorf("faults: clause %q: lat=%s: %w", clause, val, err)
					}
					r.latRate = rate
				}
			case "stuck":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faults: clause %q: stuck=%s: want a non-negative call count", clause, val)
				}
				r.stuckAfter = n
			case "stall":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: clause %q: stall=%s: want a non-negative duration", clause, val)
				}
				r.stall = d
			default:
				return nil, fmt.Errorf("faults: clause %q: unknown profile %q (want err/lat/stuck/stall)", clause, key)
			}
		}
		if r.latRate == 0 {
			r.latency = 0 // lat=DUR@0 never fires; drop the dead duration
		}
		if r.errRate == 0 && r.latRate == 0 && r.stuckAfter < 0 {
			return nil, fmt.Errorf("faults: clause %q selects no fault profile", clause)
		}
		in.rules[backend] = r
	}
	return in, nil
}

func parseRate(s string) (float64, error) {
	rate, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("want a probability in [0, 1]")
	}
	return rate, nil
}

// Active reports whether the injector carries any rule at all.
func (in *Injector) Active() bool { return in != nil && len(in.rules) > 0 }

// Seed returns the PRNG seed the schedule is derived from.
func (in *Injector) Seed() int64 { return in.seed }

// String returns the spec the injector was compiled from.
func (in *Injector) String() string { return in.spec }

// Backends lists the scoped backend names, sorted ('*' included as-is).
func (in *Injector) Backends() []string {
	out := make([]string, 0, len(in.rules))
	for name := range in.rules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HookFor returns the fault hook for one backend — the function
// accel.Engine consults before pricing — or nil when no clause scopes
// it. Exact names win over the '*' wildcard.
func (in *Injector) HookFor(backend string) func() error {
	if in == nil {
		return nil
	}
	r := in.rules[backend]
	if r == nil {
		r = in.rules["*"]
	}
	if r == nil {
		return nil
	}
	return func() error { return in.decide(backend, r) }
}

// decide plays one call against the backend's profile: wedge check
// first (a stuck shard fails everything), then the latency spike, then
// the error draw. Sleeps happen outside the mutex so concurrent shards
// only serialise on the PRNG, not on each other's stalls.
func (in *Injector) decide(backend string, r *rule) error {
	in.mu.Lock()
	n := in.calls[backend]
	in.calls[backend] = n + 1
	var latHit, errHit bool
	if r.latRate > 0 {
		latHit = in.rng.Float64() < r.latRate
	}
	if r.errRate > 0 {
		errHit = in.rng.Float64() < r.errRate
	}
	in.mu.Unlock()

	if r.stuckAfter >= 0 && n >= r.stuckAfter {
		time.Sleep(r.stall)
		return fmt.Errorf("faults: %s: shard wedged after %d calls: %w", backend, r.stuckAfter, ErrInjected)
	}
	if latHit {
		time.Sleep(r.latency)
	}
	if errHit {
		return fmt.Errorf("faults: %s: %w", backend, ErrInjected)
	}
	return nil
}
