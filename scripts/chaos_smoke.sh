#!/usr/bin/env bash
# chaos_smoke.sh — boot pricesrvd with a 20% injected error rate on the
# GPU shard, drive the paper's chain through loadgen in chaos mode, and
# hold the fault-tolerance contract: zero client-visible errors, nonzero
# server-side retries, error counters metered, and the flaky shard's
# breaker observably open on /healthz and /metrics while the pool
# reports itself degraded (not down).
#
# Run from the repository root:  ./scripts/chaos_smoke.sh
set -euo pipefail

ADDR=127.0.0.1:18081
BASE=http://$ADDR
LOG=$(mktemp)
SRV_PID=

cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill "$SRV_PID" 2>/dev/null || true
        wait "$SRV_PID" 2>/dev/null || true
    fi
    rm -f "$LOG"
}
trap cleanup EXIT

fail() {
    echo "chaos_smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2
    exit 1
}

echo "chaos_smoke: building"
go build -o /tmp/pricesrvd-chaos ./cmd/pricesrvd
go build -o /tmp/loadgen-chaos ./cmd/loadgen

# A one-hour breaker cooldown keeps the tripped breaker open through
# the post-run assertions instead of probing half-open behind our back.
echo "chaos_smoke: starting pricesrvd on $ADDR with faults on gpu-ivb"
/tmp/pricesrvd-chaos -addr "$ADDR" -steps 256 \
    -faults 'gpu-ivb:err=0.2' -fault-seed 7 \
    -breaker-cooldown 1h >"$LOG" 2>&1 &
SRV_PID=$!

for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    [ "$i" = 50 ] && fail "server did not become healthy"
    sleep 0.2
done

grep -q "faults armed on gpu-ivb" "$LOG" || fail "injector not armed"

echo "chaos_smoke: driving load under faults"
# -chaos exits nonzero if any client saw an error: the core assertion.
/tmp/loadgen-chaos -addr "$BASE" -n 2000 -warmup 0 -passes 1 -target 0 -chaos \
    || fail "loadgen chaos verdict: client-visible errors"

HEALTH=$(mktemp)
METRICS=$(mktemp)
trap 'cleanup; rm -f "$HEALTH" "$METRICS"' EXIT
curl -sf "$BASE/healthz" -o "$HEALTH" || fail "GET /healthz"
curl -sf "$BASE/metrics" -o "$METRICS" || fail "GET /metrics"

# Precondition for every breaker check below: a breaker cannot trip on
# fewer outcomes than its MinSamples (default 10), so the faulted shard
# must have priced or failed at least that many options. A placement
# change that starves gpu-ivb fails here, with this message, rather
# than as "healthz not degraded".
FLOOR=10
echo "chaos_smoke: checking gpu-ivb received work (floor $FLOOR options)"
python3 - "$HEALTH" "$FLOOR" <<'EOF' || fail "gpu-ivb received too little work for its breaker to trip: $(cat "$HEALTH")"
import json, sys
h = json.load(open(sys.argv[1]))
gpu = {b["name"]: b for b in h["backends"]}["gpu-ivb"]
seen = gpu.get("priced_options", 0) + gpu.get("price_errors", 0)
assert seen >= int(sys.argv[2]), f"gpu-ivb priced+failed {seen} options, want >= {sys.argv[2]}"
print(f"chaos_smoke: gpu-ivb priced+failed {seen} options")
EOF

echo "chaos_smoke: validating the outage is observable"
grep -q '"status":"degraded"' "$HEALTH" || fail "healthz not degraded: $(cat "$HEALTH")"
python3 - "$HEALTH" <<'EOF' || fail "healthz breaker assertions"
import json, sys
h = json.load(open(sys.argv[1]))
be = {b["name"]: b for b in h["backends"]}
gpu = be["gpu-ivb"]
assert gpu["breaker"] == "open", f"gpu-ivb breaker {gpu['breaker']!r}, want open"
assert gpu.get("price_errors", 0) > 0, "gpu-ivb has no metered errors"
for name, b in be.items():
    if name != "gpu-ivb":
        assert b["breaker"] == "closed", f"{name} breaker {b['breaker']!r}, want closed"
EOF

grep -q 'binopt_breaker_state{backend="gpu-ivb"} 1' "$METRICS" \
    || fail "metrics: gpu-ivb breaker not open"
retries=$(awk '$1 == "binopt_retries_total" {print $2}' "$METRICS")
errors=$(awk '$1 == "binopt_price_errors_total" {print $2}' "$METRICS")
[ -n "$retries" ] && [ "$retries" -gt 0 ] || fail "binopt_retries_total = ${retries:-missing}, want > 0"
[ -n "$errors" ] && [ "$errors" -gt 0 ] || fail "binopt_price_errors_total = ${errors:-missing}, want > 0"
grep -q 'binopt_backend_price_errors_total{backend="gpu-ivb"}' "$METRICS" \
    || fail "metrics: per-backend error counter missing"

echo "chaos_smoke: $errors injected failures absorbed with $retries retries"

kill "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
grep -q "drained cleanly" "$LOG" || fail "server did not drain cleanly"

echo "chaos_smoke: PASS"
