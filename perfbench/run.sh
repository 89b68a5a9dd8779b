#!/usr/bin/env bash
# Builds privtreed and the benchmark from the source of this checkout, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/privtreed" privtree/cmd/privtreed) >&2
exec "$out/bin/perfbench" --privtreed "$out/bin/privtreed" --work "$out/run" "$@"
