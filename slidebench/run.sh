#!/usr/bin/env bash
# Builds slidebench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash slidebench/run.sh --workload fixed-wide --seed 1 --seconds 10 --trace 0
# Run it from the root of a checkout. Build outputs, the Go cache and the
# traced runs' span files all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/go-tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" GOTMPDIR="$out/go-tmp" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$here" && go build -o "$out/slidebench" .)
exec "$out/slidebench" --trace-dir "$out/traces" "$@"
