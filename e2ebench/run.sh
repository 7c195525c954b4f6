#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload durable-1k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, durable
# data and span files all stay under .bench_build/ in the checkout. The
# build needs the repository's own module at the root (e2ebench/go.mod
# replaces rxview with ../), so a copy holding only the benchmark fails here.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$(dirname "$0")"
	env GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/e2ebench" .
)
exec "$out/e2ebench" --scratch "$out" "$@"
