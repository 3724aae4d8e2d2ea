#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache and work files, Go's
# config and telemetry) stays under .bench_build at the repository root.
# Build output goes to standard error, so the last line of standard output
# is the benchmark's JSON result; a failed build exits non-zero without one.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2

# The commit, when the repository root is a git work tree of its own.
commit=""
if [ -e .git ] && command -v git >/dev/null 2>&1; then
	commit="$(git rev-parse HEAD 2>/dev/null || true)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
