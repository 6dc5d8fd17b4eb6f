#!/bin/bash
# The command BENCHMARK.json names. It runs from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source and runs it. The binary, the Go build
# cache, Go's temporary files and whatever the toolchain keeps under $HOME
# all go to .bench_build in the checkout, so nothing outside it is written.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run it from the root of a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
