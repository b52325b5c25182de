#!/usr/bin/env bash
# Seed-range check for the figure benches that run the RF hop: a change to
# the simulated channel's noise (not to the wire format) moves their curves
# within the seed-to-seed spread and no further.
#
#   scripts/figure_seeds.sh <parent_build> <change_build> [N=5]
#
# Runs rssi_loss_sweep and throughput_profiles with --seed 1..N from each
# build directory and reads their curve points: rssi_loss_sweep's min,
# median and max loss per RSSI level, and throughput_profiles' frames
# received over the full FM chain. A point passes when the median of the
# change's N values lies within [min, max] of the parent's N values. Prints
# every point with both sides' values and exits 1 if any point fails.
# Both builds need a throughput_profiles that takes --seed (an older one
# ignores it, which leaves its side a single seed); to check a parent that
# predates the flag, build it with the current bench/throughput_profiles.cpp.
set -uo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
  echo "usage: $0 <parent_build> <change_build> [N=5]" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
N="${3:-5}"

OUT="$(mktemp -d)"
for side in parent change; do
  if [ "$side" = parent ]; then dir="$PARENT"; else dir="$CHANGE"; fi
  for bench in rssi_loss_sweep throughput_profiles; do
    if [ ! -x "$dir/bench/$bench" ]; then
      echo "missing $dir/bench/$bench" >&2
      exit 2
    fi
  done
  for seed in $(seq 1 "$N"); do
    # One "<point> <value>" line per curve point.
    "$dir/bench/rssi_loss_sweep" --seed "$seed" |
      awk '$1 ~ /^-?[0-9]+$/ && NF >= 4 { print "rssi_loss_sweep/" $1 "dB/min%", $2;
                                          print "rssi_loss_sweep/" $1 "dB/median%", $3;
                                          print "rssi_loss_sweep/" $1 "dB/max%", $4 }' \
      >> "$OUT/$side.points" || exit 2
    "$dir/bench/throughput_profiles" --seed "$seed" |
      sed -nE 's|.*full FM chain: ([0-9]+)/[0-9]+ frames.*|throughput_profiles/full_chain_frames_ok \1|p' \
      >> "$OUT/$side.points" || exit 2
  done
done

python3 - "$OUT/parent.points" "$OUT/change.points" "$N" <<'EOF'
import statistics
import sys

def read(path):
    points = {}
    with open(path) as f:
        for line in f:
            name, value = line.split()
            points.setdefault(name, []).append(float(value))
    return points

parent, change, n = read(sys.argv[1]), read(sys.argv[2]), int(sys.argv[3])
failed = 0
for name in parent:
    p, c = parent[name], change.get(name, [])
    if len(p) != n or len(c) != n:
        print(f"MISSING  {name}: {len(p)} parent and {len(c)} change values, want {n}")
        failed += 1
        continue
    med = statistics.median(c)
    ok = min(p) <= med <= max(p)
    failed += not ok
    print(f"{'ok      ' if ok else 'OUTSIDE '} {name}: change median {med:g} "
          f"(values {' '.join(f'{v:g}' for v in c)}), parent range [{min(p):g}, {max(p):g}]")
if set(change) - set(parent):
    print("change-only points:", " ".join(sorted(set(change) - set(parent))))
    failed += 1
print(f"{len(parent)} points at {n} seeds: {'all inside the parent range' if not failed else f'{failed} failed'}")
sys.exit(1 if failed else 0)
EOF
status=$?
rm -rf "$OUT"
exit "$status"
