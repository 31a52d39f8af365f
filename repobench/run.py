#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 repobench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0

Builds the `repobench` binary from the sources in this checkout (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs the workload, checks that
it reported exactly the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints the
result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero without a result if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, build incrementally; returns the binary's path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, build_root, "repobench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir, os.path.join(bdir, "repobench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        bdir, binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    spans = os.path.join(bdir, "spans")
    os.makedirs(spans, exist_ok=True)
    # Keep the program's optional file outputs and knobs at their
    # defaults: nothing may write outside the checkout.
    env = {k: v for k, v in os.environ.items()
           if k not in ("IDO_TRACE_DIR", "IDO_STAT", "IDO_STAT_SLOW_NS",
                        "IDO_SEED")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"repobench exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"metrics differ from BENCHMARK.json: missing={missing} "
            f"extra={extra} unit-mismatch={units}")
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
