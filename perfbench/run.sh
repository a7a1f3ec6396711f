#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's span files all go under
# .bench_build/ at the root ($CARGO_TARGET_DIR overrides the directory), so
# nothing is written outside the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" ]]; then
	echo "perfbench: $root does not hold the threads module; run from a full checkout" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# Keep the Go build cache and the go command's own state inside the
# checkout, and never reach for a network or a different toolchain.
(
	cd "$bench_dir"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/bin/perfbench" .
)
exec "$out/bin/perfbench" "$@"
