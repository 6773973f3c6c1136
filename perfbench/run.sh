#!/usr/bin/env bash
# Builds darwin-wga and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload oneshot-close --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/darwin-wga" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a darwin-wga checkout" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

go build -o "$build/bin/darwin-wga" ./cmd/darwin-wga
(cd perfbench && go build -o "$build/bin/perfbench" .)

# Go's flag package accepts --name as well as -name.
exec "$build/bin/perfbench" -bin "$build/bin/darwin-wga" -work "$build/work" -dir "$root/perfbench" "$@"
