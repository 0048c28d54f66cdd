#!/usr/bin/env bash
# Build the benchmark (and the library, from ../src) into the build
# directory, then run it with the given arguments. Run from the
# repository root:
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
# The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
exec "$build/perfbench" --out-dir "$build" "$@"
