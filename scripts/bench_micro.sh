#!/usr/bin/env bash
# Perf-regression harness: Release-build bench/micro_dsp_fec and run its
# --micro mode, which times every optimized kernel against its kept
# reference implementation and records the results.
#
#   scripts/bench_micro.sh [jobs]
#
# Writes BENCH_MICRO.json at the repo root (kernel -> before/after ns per
# op, speedup, items/s) and echoes the BENCH_MICRO lines. The build keeps
# the default ISA; the vector kernels reach AVX2 at run time where the CPU
# has it (util::simd_width()).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== bench-micro: Release build =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "${JOBS}" --target micro_dsp_fec

echo "== bench-micro: before/after kernel timings =="
./build-bench/bench/micro_dsp_fec --micro --json BENCH_MICRO.json

echo "== bench-micro: wrote BENCH_MICRO.json =="
