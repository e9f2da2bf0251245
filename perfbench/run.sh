#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload figure-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (the binary, the Go build cache,
# Go's config and telemetry files, span files) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

(cd "$root/perfbench" &&
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" --commit "$commit" "$@"
