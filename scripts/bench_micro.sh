#!/usr/bin/env bash
# Perf-regression harness: Release-build bench/micro_dsp_fec and run its
# --micro mode, which times every optimized kernel against its kept
# reference implementation and records the results.
#
#   scripts/bench_micro.sh [jobs]
#
# Runs --micro three times and writes BENCH_MICRO.json at the repo root
# with each row's median before and after ns per op (the speedup and
# items/s recomputed from those medians), then echoes the merged rows. One
# run drifts 1.15-2.9x on a shared host; the median of three damps that.
# The header's ref_kernel_us is the median of the runs' host reference
# (a copy of e2ebench's fixed sin/cos kernel, best of three per run): it
# records how fast the host was. Absolute ns move with the host by more
# than most kernel changes, even with a reference beside them, so only the
# `speedup` column compares, and only within one file: a row's before and
# after are timed in alternating batches of one run.
# The build keeps the default ISA; the vector kernels reach AVX2 at run
# time where the CPU has it (util::simd_width()).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
RUNS=3

echo "== bench-micro: Release build =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "${JOBS}" --target micro_dsp_fec

for run in $(seq 1 "${RUNS}"); do
  echo "== bench-micro: before/after kernel timings, run ${run} of ${RUNS} =="
  ./build-bench/bench/micro_dsp_fec --micro --json "build-bench/BENCH_MICRO.run${run}.json"
done

echo "== bench-micro: per-row medians =="
python3 - "${RUNS}" <<'PY'
import json, statistics, sys

docs = [json.load(open(f"build-bench/BENCH_MICRO.run{i}.json")) for i in range(1, int(sys.argv[1]) + 1)]
runs = [doc["kernels"] for doc in docs]
ref_kernel_us = statistics.median(doc["ref_kernel_us"] for doc in docs)
rows = []
for i, first in enumerate(runs[0]):
    same = [run[i] for run in runs]
    assert all(r["kernel"] == first["kernel"] for r in same), "runs list different kernels"
    before = statistics.median(r["before_ns_op"] for r in same)
    after = statistics.median(r["after_ns_op"] for r in same)
    items_per_op = first["after_items_per_s"] * first["after_ns_op"] * 1e-9
    rows.append((first["kernel"], before, after, before / after, items_per_op / (after * 1e-9), first["items_unit"]))
with open("BENCH_MICRO.json", "w") as f:
    f.write('{\n  "generated_by": "bench/micro_dsp_fec --micro, median of %d runs",\n' % len(runs))
    f.write('  "compare": "only speedup compares, and only within this file: ns per op move with the host",\n')
    f.write('  "ref_kernel_us": %.1f,\n  "kernels": [\n' % ref_kernel_us)
    for i, (kernel, before, after, speedup, items_s, unit) in enumerate(rows):
        f.write('    {"kernel": "%s", "before_ns_op": %.1f, "after_ns_op": %.1f, "speedup": %.2f, '
                '"after_items_per_s": %.3e, "items_unit": "%s"}%s\n'
                % (kernel, before, after, speedup, items_s, unit, "," if i + 1 < len(rows) else ""))
        print("BENCH_MICRO kernel=%s before_ns_op=%.1f after_ns_op=%.1f speedup=%.2f after_items_per_s=%.3e unit=%s"
              % (kernel, before, after, speedup, items_s, unit))
    f.write("  ]\n}\n")
print("BENCH_MICRO ref_kernel_us=%.1f (median of %d runs)" % (ref_kernel_us, len(runs)))
PY

echo "== bench-micro: wrote BENCH_MICRO.json =="
