#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-hour --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
mkdir -p "$HOME"

# Build to a private name and rename, so a run never executes a binary
# another build is still writing.
(cd "$root/perfbench" && go build -o "$out/perfbench-bin.$$" .) >&2
mv -f "$out/perfbench-bin.$$" "$out/perfbench-bin"
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
