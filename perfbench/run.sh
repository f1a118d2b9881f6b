#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload fanin-observed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the current directory: the Go build cache, the binary,
# span dumps and the durable workload's state directories.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/tmp" "${out}/home"

(
	cd "${root}/perfbench"
	HOME="${out}/home" XDG_CONFIG_HOME="${out}/home" \
		GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOTMPDIR="${out}/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "${out}/perfbench" .
)

PERFBENCH_COMMAND="bash perfbench/run.sh $*" exec "${out}/perfbench" "$@"
