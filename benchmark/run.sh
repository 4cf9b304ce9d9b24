#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. The Go build cache and the binary live in .bench_build/,
# so nothing is written outside the checkout and a parent and a child
# checkout never share build outputs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
