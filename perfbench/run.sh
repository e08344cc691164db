#!/usr/bin/env bash
# Builds btserved and the benchmark from this checkout, then runs one
# workload. Every file it writes (Go build cache, binaries, tables, logs,
# spans) stays under .bench_build/ at the checkout's root.
#
#   bash perfbench/run.sh --workload mem-read --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# Telemetry off: otherwise the go command starts a detached upload process
# that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/btserved" ./cmd/btserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -btserved "$out/bin/btserved" -dir "$out" "$@"
