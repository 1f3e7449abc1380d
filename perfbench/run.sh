#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload dag-solve --seed 1 --seconds 25 --trace 0
#
# Run from the root of the checkout. Build outputs, the Go build cache, trace
# files and the service workload's journals all stay under .bench_build.
set -euo pipefail
root="$(pwd)"
if [ ! -f "${root}/go.mod" ] || [ ! -f "${root}/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 1
fi
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --out "${out}" "$@"
