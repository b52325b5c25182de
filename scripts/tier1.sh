#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, the LLR
# soft-byte table checked on every float (~25 s on four threads), a smoke
# run of the end-to-end benchmark (its Release build of src/ plus every
# workload's correctness checks), the full test suite rebuilt and rerun under
# ThreadSanitizer (cmake -DSONIC_TSAN=ON) to catch data races in the
# pipeline's worker pool and the shared caches and codecs, then the kernel
# suite built with __SSE2__ undefined, so the generic fallbacks of the SSE2
# kernels (the Viterbi butterflies and decision gather, the ziggurat's miss
# bits) stay tested and the Viterbi object holds no AVX2 code, and last the
# end-to-end benchmark built the same way, its client receive chain
# smoke-run on those fallbacks.
#
#   scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier-1: LLR soft-byte table against its float definition on all 2^32 floats =="
# The receive chain's soft bytes come from a table of the thresholds of
# quantize_soft(1 / (1 + expf(-llr))), which is exact only while that
# function is monotone under this libm's expf.
build/bench/micro_dsp_fec --exhaustive-llr

echo "== tier-1: end-to-end benchmark smoke run =="
python3 e2ebench/run.py --smoke

echo "== tier-1: full test suite under ThreadSanitizer =="
cmake -B build-tsan -S . -DSONIC_TSAN=ON
cmake --build build-tsan -j "$JOBS" \
  --target sonic_tests sonic_uplink_tests sonic_streaming_tests sonic_kernel_tests
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

echo "== tier-1: kernel suite on the portable (non-SSE2) paths =="
cmake -B build-portable -S . -DCMAKE_CXX_FLAGS=-U__SSE2__
cmake --build build-portable -j "$JOBS" --target sonic_kernel_tests
ctest --test-dir build-portable -L kernel --output-on-failure -j "$JOBS"
# The Viterbi's AVX2 instance is compiled only with __SSE2__ defined, so
# the portable row never measures it: its object must hold no ymm register.
CONV_OBJ=build-portable/src/fec/CMakeFiles/sonic_fec.dir/convolutional.cpp.o
CONV_ASM="$(objdump -d "$CONV_OBJ")"
if grep -q '%ymm' <<< "$CONV_ASM"; then
  echo "tier-1: $CONV_OBJ holds AVX code in the portable build" >&2
  exit 1
fi

echo "== tier-1: client receive chain end to end on the portable paths =="
cmake -S e2ebench -B build-portable-e2e -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-U__SSE2__
cmake --build build-portable-e2e -j "$JOBS"
build-portable-e2e/e2ebench --workload client_rx --seed 1 --seconds 1 --trace 0 --smoke

echo "tier-1 OK"
