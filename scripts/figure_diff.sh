#!/usr/bin/env bash
# Figure-bench regression check: runs the deterministic figure and ablation
# benches at their default settings from two build directories (e.g. a build
# of the parent commit and a build of the change) and diffs their stdout.
# A change that should not move any figure must print identical output.
#
#   scripts/figure_diff.sh <parent_build> <change_build>
#
# Each argument is a CMake build directory holding bench/<name> binaries.
# The wall-clock figures these benches print (throughput_profiles'
# "simulated in X s", carousel_convergence's "N.NN ms" decode timings) are
# masked before comparing; everything else must match byte for byte. The
# 28 (bench, side) runs go as parallel jobs, nproc at a time, the slowest
# benches first; each run writes only its own files, and the comparison
# waits for all of them. Each bench's line also gives both runs' wall
# seconds, taken while the other jobs share the cores. Outputs are kept in
# a temporary directory, named on a mismatch. Exits 0 when every bench
# matches, 1 otherwise.
set -uo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <parent_build> <change_build>" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"

BENCHES=(
  fig4a_distance_loss
  rssi_loss_sweep
  ber_waterfall
  ablation_fec
  ablation_modulation
  throughput_profiles
  downlink_streaming
  ablation_interpolation
  fig5_user_study
  ablation_uep
  fig4b_size_cdf
  carousel_convergence
  uplink_reliability
  fig4c_backlog
)

# fig4b_size_cdf and fig4c_backlog take most of a side's time, so they
# start first and the short benches fill the other cores around them.
LAUNCH=(fig4b_size_cdf fig4c_backlog)
for bench in "${BENCHES[@]}"; do
  case "$bench" in fig4b_size_cdf|fig4c_backlog) ;; *) LAUNCH+=("$bench") ;; esac
done

for bench in "${BENCHES[@]}"; do
  for dir in "$PARENT" "$CHANGE"; do
    if [ ! -x "$dir/bench/$bench" ]; then
      echo "missing $dir/bench/$bench" >&2
      exit 2
    fi
  done
done

OUT="$(mktemp -d)"

# run <bench> <side>: the bench's stdout with its wall-clock figures
# masked, its exit code and its wall seconds.
run() {
  local bench="$1" side="$2" dir mask start
  if [ "$side" = parent ]; then dir="$PARENT"; else dir="$CHANGE"; fi
  start="$EPOCHREALTIME"
  "$dir/bench/$bench" > "$OUT/$bench.$side.raw" 2>/dev/null
  echo "$?" > "$OUT/$bench.$side.rc"
  awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f\n", b - a }' > "$OUT/$bench.$side.sec"
  mask='s/\(simulated in [0-9.]+ s\)/(simulated in <wall-clock> s)/'
  if [ "$bench" = carousel_convergence ]; then mask='s/[0-9]+\.[0-9]+ ms/<wall-clock> ms/g'; fi
  sed -E "$mask" "$OUT/$bench.$side.raw" > "$OUT/$bench.$side"
}

JOBS="$(nproc)"
for bench in "${LAUNCH[@]}"; do
  for side in parent change; do
    while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do wait -n; done
    run "$bench" "$side" &
  done
done
wait

failed=0
for bench in "${BENCHES[@]}"; do
  wall="parent $(cat "$OUT/$bench.parent.sec") s, change $(cat "$OUT/$bench.change.sec") s"
  if cmp -s "$OUT/$bench.parent" "$OUT/$bench.change" &&
     cmp -s "$OUT/$bench.parent.rc" "$OUT/$bench.change.rc"; then
    echo "identical  $bench ($wall)"
  else
    echo "DIFFERENT  $bench (exit $(cat "$OUT/$bench.parent.rc") vs $(cat "$OUT/$bench.change.rc"); $wall)"
    diff "$OUT/$bench.parent" "$OUT/$bench.change" | head -20
    failed=1
  fi
done

if [ "$failed" -ne 0 ]; then
  echo "figure benches differ; outputs in $OUT"
  exit 1
fi
rm -rf "$OUT"
echo "all ${#BENCHES[@]} figure benches identical"
