#!/usr/bin/env bash
# Flat profiles of the end-to-end benchmark's workloads that name the hot
# functions correctly.
#
#   scripts/profile.sh [seconds] [workload ...]
#
# Builds e2ebench/ (and the src/ it compiles) into build-profile/ with
# -pg -fno-omit-frame-pointer -fno-ipa-sra -fno-partial-inlining
# -fno-ipa-cp-clone, runs each workload (default: all three) for `seconds`
# (default 8) at seed 1 with tracing off, and writes one `gprof -p` flat
# profile per workload to build-profile/profile_<workload>.txt.
#
# THIS BINARY IS NOT THE RELEASE ONE. -pg adds a counting call to every
# function and keeps frame pointers, and GCC's clone-making passes are off:
# gprof files a local clone (`.isra`, `.part`, `.constprop`) under whichever
# global symbol precedes it, so with clones on it misnames hot code (the
# resampler's emit kernel as `Biquad::reset`, the fountain's neighbour draw
# as `ReedSolomon::decode`). Shares and call counts show where time goes;
# the seconds are this build's, not a measurement of the Release build
# that e2ebench/run.py times. gprof does not see inside libc.
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_RUN="${1:-8}"
shift || true
WORKLOADS=("$@")
if [[ ${#WORKLOADS[@]} -eq 0 ]]; then WORKLOADS=(air_chain client_rx sms_station); fi
BUILD=build-profile
FLAGS="-pg -fno-omit-frame-pointer -fno-ipa-sra -fno-partial-inlining -fno-ipa-cp-clone"

echo "== profile: -pg build of e2ebench into ${BUILD}/ =="
cmake -S e2ebench -B "${BUILD}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="${FLAGS}" -DCMAKE_EXE_LINKER_FLAGS=-pg
cmake --build "${BUILD}" -j "$(nproc)"

for workload in "${WORKLOADS[@]}"; do
  echo "== profile: ${workload}, ${SECONDS_PER_RUN} s at seed 1 =="
  # gprof reads gmon.out from the directory the binary ran in.
  run_dir="${BUILD}/run_${workload}"
  rm -rf "${run_dir}"
  mkdir -p "${run_dir}"
  (cd "${run_dir}" && ../e2ebench --workload "${workload}" --seed 1 --seconds "${SECONDS_PER_RUN}" --trace 0 > result.json)
  gprof -p -b "${BUILD}/e2ebench" "${run_dir}/gmon.out" > "${BUILD}/profile_${workload}.txt"
  echo "wrote ${BUILD}/profile_${workload}.txt; top functions:"
  sed -n '1,16p' "${BUILD}/profile_${workload}.txt"
done
