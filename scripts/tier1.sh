#!/usr/bin/env bash
# Tier-1 verification: a check that no header outside util/cpu.hpp and
# util/lanes.hpp names the kernel width, the standard build + full test
# suite, a check that no DSP, FM, FEC, modem or util object of that build
# holds a fused multiply-add (which would change bits the tests pin), that no
# modem object calls libgcc's complex division or multiplication, and that
# only the one width dispatch's AVX2 instances hold 32-byte registers, the LLR
# soft-byte table checked on every float (~25 s on four threads), a smoke
# run of the end-to-end benchmark (its Release build of src/ plus every
# workload's correctness checks), the full test suite rebuilt and rerun
# under ThreadSanitizer (cmake -DSONIC_TSAN=ON) to catch data races in the
# pipeline's worker pool and the shared caches and codecs, then the kernel
# suite built with __SSE2__ undefined, so the generic fallbacks of the SSE2
# kernels (the Viterbi butterflies and decision gather, the FM chain's
# four-lane kernels, the ziggurat's miss bits) stay tested and no DSP, FM,
# FEC, modem or util object holds AVX2 code, and last the end-to-end
# benchmark built the same way, its client receive chain smoke-run on
# those fallbacks.
#
#   scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: no kernel width knob outside util/cpu.hpp and util/lanes.hpp =="
# The kernel width is one decision per process (util::simd_width()); only
# a test or a benchmark row narrows its own thread, through
# util::ScopedSimdWidth. Any other header naming SimdWidth would bring a
# width parameter back into a kernel's interface.
knobs="$(grep -rl SimdWidth --include='*.hpp' src | grep -vxE 'src/util/(cpu|lanes)\.hpp' || true)"
if [[ -n "$knobs" ]]; then
  echo "tier-1: these headers name SimdWidth:" >&2
  echo "$knobs" >&2
  exit 1
fi

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier-1: no fused multiply-add in the DSP, FM, FEC, modem and util objects =="
# The kernels' AVX2 instances carry target("avx2"), never "fma": a
# contracted multiply-add rounds once where the four-lane instance rounds
# twice, and the two would no longer give the same bits. The modem and util
# objects hold bit-pinned lane code too (float_dots4, demap_block,
# place_soft, the ziggurat's rectangle4).
# The disassembly is captured before grep reads it: `objdump | grep -q`
# under pipefail fails (objdump dies of SIGPIPE) exactly when grep matches.
# A glob that matches nothing stays literal and fails objdump.
for obj in build/src/dsp/CMakeFiles/sonic_dsp.dir/*.o build/src/fm/CMakeFiles/sonic_fm.dir/*.o \
           build/src/fec/CMakeFiles/sonic_fec.dir/*.o build/src/modem/CMakeFiles/sonic_modem.dir/*.o \
           build/src/util/CMakeFiles/sonic_util.dir/*.o; do
  asm="$(objdump -d "$obj")"
  if grep -qE 'vfn?m(add|sub)' <<< "$asm"; then
    echo "tier-1: $obj holds a fused multiply-add" >&2
    exit 1
  fi
done

echo "== tier-1: no libgcc complex division or multiplication in the modem objects =="
# The receiver's equalizer, channel-estimate and pilot divisions go through
# dsp::divide (dsp/complex_divide.hpp), and its phase correction and
# real-FFT split multiply through dsp/carrier_math.hpp: both keep
# std::complex<float>'s bits in vector lanes and reach libgcc's __divsc3
# and __mulsc3 only from src/dsp/, for NaN parts. A plain complex `y / h`
# or `w * z` under src/modem/ would bring the call back.
for obj in build/src/modem/CMakeFiles/sonic_modem.dir/*.o; do
  syms="$(nm "$obj")"
  for fn in __divsc3 __mulsc3; do
    if grep -q "$fn" <<< "$syms"; then
      echo "tier-1: $obj references $fn" >&2
      exit 1
    fi
  done
done

echo "== tier-1: 32-byte registers only in the one width dispatch =="
# util::at_width (util/lanes.hpp) reaches AVX2 through one function,
# util::run_lanes8, which carries target("avx2") and flatten; each of its
# instances inlines one kernel. A %ymm in any other function would be AVX
# code that the process's one CPU probe does not guard.
for obj in build/src/*/CMakeFiles/*.dir/*.o; do
  asm="$(objdump -d -C "$obj")"
  stray="$(awk '/^[0-9a-f]+ <.*>:$/ { fn = $0 }
                /%ymm/ && fn !~ /^[0-9a-f]+ <void sonic::util::run_lanes8</ { print fn }' <<< "$asm" | sort -u)"
  if [[ -n "$stray" ]]; then
    echo "tier-1: $obj holds AVX code outside util::run_lanes8:" >&2
    echo "$stray" >&2
    exit 1
  fi
done

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
# The AVX2 instances (util::run_lanes8's) are compiled only with __SSE2__
# defined, so the portable row never measures them: no object of the
# libraries that hold lane code may hold a ymm register.
for obj in build-portable/src/fec/CMakeFiles/sonic_fec.dir/*.o build-portable/src/modem/CMakeFiles/sonic_modem.dir/*.o \
           build-portable/src/util/CMakeFiles/sonic_util.dir/*.o \
           build-portable/src/dsp/CMakeFiles/sonic_dsp.dir/*.o build-portable/src/fm/CMakeFiles/sonic_fm.dir/*.o; do
  asm="$(objdump -d "$obj")"
  if grep -q '%ymm' <<< "$asm"; then
    echo "tier-1: $obj holds AVX code in the portable build" >&2
    exit 1
  fi
done

echo "== tier-1: client receive chain end to end on the portable paths =="
cmake -S e2ebench -B build-portable-e2e -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-U__SSE2__
cmake --build build-portable-e2e -j "$JOBS"
build-portable-e2e/e2ebench --workload client_rx --seed 1 --seconds 1 --trace 0 --smoke

echo "tier-1 OK"
