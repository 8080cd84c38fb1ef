package faults

import (
	"strconv"
	"strings"
)

// Canonical re-emits the compiled rules as a normalized spec: clauses
// sorted by backend, profiles in err, lat, stuck, stall order, inactive
// components omitted, durations and rates in Go's shortest round-trip
// forms. Parsing a canonical spec yields the same canonical spec, so
// two specs compile to the same fault schedule iff their canonical
// forms match. The parser fuzz checks that fixed point.
func (in *Injector) Canonical() string {
	var clauses []string
	for _, backend := range in.Backends() {
		r := in.rules[backend]
		var ps []string
		if r.errRate > 0 {
			ps = append(ps, "err="+formatRate(r.errRate))
		}
		if r.latRate > 0 {
			ps = append(ps, "lat="+r.latency.String()+"@"+formatRate(r.latRate))
		}
		if r.stuckAfter >= 0 {
			ps = append(ps, "stuck="+strconv.FormatInt(r.stuckAfter, 10))
			ps = append(ps, "stall="+r.stall.String())
		}
		clauses = append(clauses, backend+":"+strings.Join(ps, ","))
	}
	return strings.Join(clauses, ";")
}

func formatRate(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}
