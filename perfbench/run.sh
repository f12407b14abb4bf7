#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload events-durable --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, store directories, span
# dumps) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps telemetry counters under the user's config
# directory; point that into the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
