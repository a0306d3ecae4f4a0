#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload arch-sweep --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temporary journals, result
# files and traces.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no repro module at $root; run from a full checkout" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
