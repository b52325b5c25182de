#!/usr/bin/env bash
# Alternating-pairs comparison of two checkouts on one end-to-end workload.
#
#   scripts/bench_pairs.sh <parent_checkout> <change_checkout> <workload> [pairs] [seed]
#
# Runs `python3 e2ebench/run.py --workload <workload> --seed <seed>
# --seconds 15 --trace 0` in each checkout in turn, `pairs` times (default
# 5, seed 1), switching which side goes first on each pair so host drift
# hits both sides alike. Prints each pair's end-to-end metrics, then per
# metric the median and interquartile range of each side and how many
# pairs the change won. Exits 1 if any run reports `correct: false` or a
# failed operation (or prints no result).
#
# Each checkout's run.py builds its own Release copy into .bench_build/ at
# that checkout's root; nothing else in either checkout is written.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <parent_checkout> <change_checkout> <workload> [pairs] [seed]" >&2
  exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3"
PAIRS="${4:-5}"
SEED="${5:-1}"
SECONDS_PER_RUN=15

RESULTS="$(mktemp)"
trap 'rm -f "$RESULTS"' EXIT

run_side() {  # <label> <checkout>
  local line
  line="$(cd "$2" && python3 e2ebench/run.py --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1)" || true
  printf '%s\t%s\t%s\n' "$PAIR" "$1" "${line:-null}" >> "$RESULTS"
}

for ((PAIR = 1; PAIR <= PAIRS; ++PAIR)); do
  if ((PAIR % 2 == 1)); then
    run_side parent "$PARENT"
    run_side change "$CHANGE"
  else
    run_side change "$CHANGE"
    run_side parent "$PARENT"
  fi
  echo "pair $PAIR/$PAIRS done" >&2
done

python3 - "$RESULTS" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

path, workload = sys.argv[1], sys.argv[2]
METRICS = (("setup_s", "lower"), ("rt_x", "higher"), ("pages_s", "higher"),
           ("pages_ok_ratio", "higher"))
runs = {}  # (pair, side) -> result dict or None
for row in open(path):
    pair, side, line = row.rstrip("\n").split("\t", 2)
    try:
        runs[(int(pair), side)] = json.loads(line)
    except json.JSONDecodeError:
        runs[(int(pair), side)] = None

ok = True
pairs = sorted({p for p, _ in runs})
print(f"workload {workload}: {len(pairs)} alternating pairs")
print("pair  side    " + "  ".join(f"{m:>14}" for m, _ in METRICS) + "  correct  failed")
for p in pairs:
    for side in ("parent", "change"):
        r = runs.get((p, side))
        if r is None:
            print(f"{p:>4}  {side:<6}  no result")
            ok = False
            continue
        vals = "  ".join(f"{r['metrics'][m]['value']:>14.6g}" for m, _ in METRICS)
        print(f"{p:>4}  {side:<6}  {vals}  {str(r['correct']):>7}  {r['failed']:>6}")
        ok = ok and bool(r["correct"]) and r["failed"] == 0


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]


print()
print(f"{'metric':<15} {'parent median':>14} {'IQR':>10} {'change median':>14} {'IQR':>10} "
      f"{'ratio':>7}  change won")
for m, better in METRICS:
    par, chg, won, n = [], [], 0, 0
    for p in pairs:
        a, b = runs.get((p, "parent")), runs.get((p, "change"))
        if a is None or b is None:
            continue
        x, y = a["metrics"][m]["value"], b["metrics"][m]["value"]
        par.append(x)
        chg.append(y)
        n += 1
        won += (y < x) if better == "lower" else (y > x)
    if not par:
        continue
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    ratio = cmed / pmed if pmed else float("nan")
    print(f"{m:<15} {pmed:>14.6g} {pq3 - pq1:>10.4g} {cmed:>14.6g} {cq3 - cq1:>10.4g} "
          f"{ratio:>7.3f}  {won}/{n}")

if not ok:
    print("FAIL: a run reported correct=false, a failed operation, or no result")
sys.exit(0 if ok else 1)
EOF
