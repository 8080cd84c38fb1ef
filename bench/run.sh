#!/bin/sh
# Builds and runs the layer-ladder benchmark (bench/main.go) from the
# repository root, passing every argument through:
#
#	sh bench/run.sh -workload curve-cold -seed 1 -seconds 25 -trace 0
#
# The Go build cache, the built binaries and the results all stay under
# .bench_build/ in the checkout, so a run writes nothing outside it and
# needs no network. XDG_CONFIG_HOME moves the go command's own config
# and telemetry counters there too.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/pricesrvd ] || [ ! -d cmd/pricefleet ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root; go.mod, cmd/pricesrvd, cmd/pricefleet and bench/go.mod must exist" >&2
	exit 2
fi
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOMODCACHE="$root/.bench_build/gomodcache" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
