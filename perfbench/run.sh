#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload recover --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the benchmark's own outputs stay
# under perfbench/ (see the root .gitignore), so a checkout is all it
# reads and writes besides the Go toolchain.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
