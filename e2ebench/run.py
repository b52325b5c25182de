#!/usr/bin/env python3
"""Build and run the SONIC end-to-end benchmark.

Run from the root of a SONIC checkout:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds the benchmark (Release, into .bench_build/e2ebench) and runs
      one workload. The last line of standard output is the JSON
      result.
  python3 e2ebench/run.py --smoke
      Runs every workload at tiny size, untraced and traced, and checks that
      each named metric of BENCHMARK.json is emitted with its unit, that the
      layers each workload calls report nonzero timings, and that every
      correctness check passes. Takes a few seconds after the build.
  python3 e2ebench/run.py --heldout [--seconds <s>]
      Runs every workload at the recorded default seed and at a held-out
      seed and checks each throughput metric stays within its bound.

The build compiles the repository's src/ from source; without it (a
directory holding only the benchmark) the build fails and no result is
printed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("air_chain", "client_rx", "sms_station")

# Per-layer metrics each workload's traced run must report as nonzero: the
# layers it calls. Every traced run reports every per-layer metric, zero for
# a layer it does not touch, so a span a refactor dropped would otherwise
# read as a free gain.
WORKLOAD_LAYERS = {
    "air_chain": ["web.render_ms_per_page", "sonic.bundle_ms_per_page", "modem.tx_ns_per_sample",
                  "fm.mod_ns_per_sample", "fm.rf_ns_per_sample", "fm.demod_ns_per_sample",
                  "fm.air_ns_per_sample", "modem.rx_ns_per_sample", "sonic.rx_frame_ns",
                  "sonic.flush_ms", "sonic.prepare_share", "sonic.on_audio_p50_ms",
                  "sonic.on_audio_p99_ms", "modem.frames_ok_ratio"],
    "client_rx": ["modem.rx_ns_per_sample", "sonic.rx_frame_ns", "sonic.flush_ms",
                  "sonic.on_audio_p50_ms", "sonic.on_audio_p99_ms", "modem.frames_ok_ratio"],
    "sms_station": ["web.render_ms_per_page", "sonic.bundle_ms_per_page", "sonic.poll_us_per_sms",
                    "sonic.advance_ms", "sonic.uplink_us_per_call", "sms.gateway_us_per_msg",
                    "sonic.push_share", "sonic.cache_hit_ratio", "sonic.page_wait_p50_s",
                    "sonic.page_wait_p99_s"],
}
# Throughput metrics compared by --heldout on every workload.
THROUGHPUT = ("rt_x", "pages_s")
DEFAULT_SEED = 1
HELDOUT_SEED = 1000003


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(ROOT, ".bench_build", "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2ebench")


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary):
    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            code, result = run(binary, w, DEFAULT_SEED, 1, trace, smoke=True)
            tag = f"{w} trace={int(trace)}"
            if code != 0 or result is None or not result.get("correct"):
                problems.append(f"{tag}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = layer_units if trace else e2e_units
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            # End-to-end metrics must never read 0; per-layer ones must not
            # on the layers the workload calls.
            for name in WORKLOAD_LAYERS[w] + ["ref.kernel_us"] if trace else e2e_units:
                if not result["metrics"].get(name, {}).get("value", 0) > 0:
                    problems.append(f"{tag}: {name} is zero")
            if result["attempted"] < 1:
                problems.append(f"{tag}: attempted must be at least 1")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("SMOKE OK" if not problems else f"SMOKE FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


def heldout(binary, seconds):
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    ok = True
    for w in WORKLOADS:
        results = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            code, result = run(binary, w, seed, seconds, False)
            if code != 0 or result is None or not result["correct"]:
                print(f"HELDOUT FAIL: {w} seed {seed}: exit {code}")
                ok = False
                break
            results[seed] = result["metrics"]
        if len(results) < 2:
            continue
        for metric in THROUGHPUT:
            base = results[DEFAULT_SEED][metric]["value"]
            held = results[HELDOUT_SEED][metric]["value"]
            change = (held - base) / base
            within = abs(change) <= bounds[metric]["bound"]
            ok = ok and within
            print(f"HELDOUT {w} {metric}: seed {DEFAULT_SEED} {base:.4g}, seed {HELDOUT_SEED} "
                  f"{held:.4g} ({100 * change:+.1f} %, bound {100 * bounds[metric]['bound']:.0f} %) "
                  f"{'ok' if within else 'OUT OF BOUND'}")
    print("HELDOUT OK" if ok else "HELDOUT FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--heldout", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.heldout) and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    binary = build()
    if binary is None:
        log("e2ebench: build failed")
        return 1
    if args.smoke:
        return smoke(binary)
    if args.heldout:
        return heldout(binary, args.seconds)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
