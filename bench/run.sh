#!/usr/bin/env bash
# Builds hmbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload fig8-stencil --seed 42 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository, and the Go toolchain is kept offline.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/hmbench" ./hmbench)
exec "$out/hmbench" -root "$root" "$@"
