#!/usr/bin/env bash
# Address+UndefinedBehaviorSanitizer run: the full test suite rebuilt with
# cmake -DSONIC_ASAN=ON, to catch out-of-bounds reads/writes in the
# hand-indexed byte-buffer paths (frame parsing, fountain GF(2^8)
# elimination, WebP-ish codecs) and UB in the receiver's signed/unsigned
# index arithmetic (the fine-timing underflow class of bug), and
# float-cast-overflow in float-to-int conversions such as the Viterbi
# soft-bit quantizer.
#
#   scripts/asan.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== full test suite under Address+UBSanitizer =="
cmake -B build-asan -S . -DSONIC_ASAN=ON
cmake --build build-asan -j "$JOBS" \
  --target sonic_tests sonic_uplink_tests sonic_streaming_tests sonic_kernel_tests
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "asan OK"
