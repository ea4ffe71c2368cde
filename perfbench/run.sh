#!/usr/bin/env bash
# Builds the benchmark runner from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and the go command's own state
# (GOPATH, telemetry under XDG_CONFIG_HOME) stay in .bench_build at the
# checkout root, so a run writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The commit is recorded with every result; a checkout without git
# history reports "unknown". The ceiling keeps git inside the checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
