#!/usr/bin/env bash
# coldpath_smoke.sh — guard the lattice cold path against silent
# regression at the paper's 1024-step depth, on both sweeps a cache miss
# can take and on the Greeks pass of a scenario request:
#
#   - BenchmarkPriceAmericanPut1024: the scalar reference sweep;
#   - BenchmarkPriceBatchQuad1024/workers=1: the quad-interleaved batch
#     pricer every serving shard submits its misses to, on one worker;
#   - BenchmarkPriceAndGreeksBatch1024: a 12-position CRR book's base and
#     bump lanes packed into 15 quad groups, on one worker. Its pinned
#     allocs/op keeps the pass off per-position scalar sweeps, each of
#     which allocates its plan and retained levels.
#
# Each benchmark runs a few times and two gates apply:
#
#   - wall time: the best run may be at most 25% slower than the
#     benchmark's ns_per_op in the latest BENCH_serve.json entry naming
#     it. Benchmark noise on shared CI boxes is real, hence best-of-N
#     against a generous threshold: this gate catches an accidentally
#     quadratic sweep or a lost optimisation, not single-digit drift.
#   - allocations: no run may allocate more per op than the count pinned
#     below. allocs/op repeats exactly between runs, so this gate has no
#     slack; a change that lowers a count should lower its pin too.
#
# Run from the repository root:  ./scripts/coldpath_smoke.sh
set -euo pipefail

COUNT=3
MAX_REGRESSION_PCT=25

fail() {
    echo "coldpath_smoke: FAIL: $*" >&2
    exit 1
}

# gate NAME PATTERN MAX_ALLOCS: NAME is the benchmark as go test prints
# it (minus the -GOMAXPROCS suffix) and as BENCH_serve.json records it,
# PATTERN the -bench regexp selecting it.
gate() {
    local name=$1 pattern=$2 max_allocs=$3
    local baseline
    baseline=$(awk -v name="$name" '
        index($0, "\"name\": \"" name "\"") { armed = 1; next }
        armed && /"ns_per_op"/ { gsub(/[^0-9]/, ""); latest = $0; armed = 0 }
        END { print latest }
    ' BENCH_serve.json)
    [ -n "$baseline" ] || fail "no $name baseline found in BENCH_serve.json"

    echo "coldpath_smoke: $name baseline ${baseline} ns/op, at most ${max_allocs} allocs/op"
    local out
    out=$(go test ./internal/serve/ -run '^$' -bench "$pattern" -benchmem -benchtime 1s -count "$COUNT")
    echo "$out"

    # Columns: name iterations ns "ns/op" [custom metric unit]... B "B/op" allocs "allocs/op".
    local stats best allocs
    stats=$(echo "$out" | awk -v name="$name" '
        { sub(/-[0-9]+$/, "", $1) }
        $1 == name {
            ns = $3 + 0
            if (best == "" || ns < best) best = ns
            for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > worst) worst = $(i - 1) + 0
        }
        END { if (best != "") print best, worst }
    ')
    [ -n "$stats" ] || fail "$name produced no samples"
    read -r best allocs <<<"$stats"

    local limit=$((baseline + baseline * MAX_REGRESSION_PCT / 100))
    echo "coldpath_smoke: $name best ${best} ns/op (limit ${limit}), worst ${allocs} allocs/op (limit ${max_allocs})"
    if [ "$best" -gt "$limit" ]; then
        fail "$name regressed: best ${best} ns/op > ${limit} ns/op (baseline ${baseline} + ${MAX_REGRESSION_PCT}%)"
    fi
    if [ "$allocs" -gt "$max_allocs" ]; then
        fail "$name allocates ${allocs}/op, pinned at ${max_allocs}/op"
    fi
}

gate BenchmarkPriceAmericanPut1024 '^BenchmarkPriceAmericanPut1024$' 5
gate BenchmarkPriceBatchQuad1024/workers=1 '^BenchmarkPriceBatchQuad1024$/^workers=1$' 9
gate BenchmarkPriceAndGreeksBatch1024 '^BenchmarkPriceAndGreeksBatch1024$' 13
echo "coldpath_smoke: PASS"
