#!/usr/bin/env bash
# Builds cmd/experiments, cmd/wcetd and the benchmark program from the
# checkout in the current directory, then runs it:
#
#   bash perfbench/run.sh --workload figure4|serve|campaign --seed N \
#       --seconds S --trace 0|1
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/wcetd" ] || [ ! -d "$root/cmd/experiments" ]; then
  echo "perfbench: run from the repository root (go.mod, cmd/wcetd and cmd/experiments not found)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/experiments ./cmd/wcetd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
