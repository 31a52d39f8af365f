#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 repobench/selftest.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly in both modes through
run.py and asserts that the run is correct with no failed op, that it
reports exactly the metrics BENCHMARK.json names for the mode, each with
its unit and a finite value, and that in the traced kv runs every nvm
span lies inside its op's apps span (so apps self time plus nvm child
time accounts for the op).  Exits 1 on the first failure.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_spans(workload):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, build_root, "repobench", "spans",
                        f"spans-{workload}-{SEED}.jsonl")
    spans = [json.loads(line) for line in open(path)]
    ops = {s["id"]: s for s in spans if s["parent"] == 0}
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    assert ops, f"{path}: no sampled ops"
    for pid, kids in children.items():
        op = ops[pid]
        kids.sort(key=lambda s: s["start_ns"])
        prev_end = op["start_ns"]
        for k in kids:
            assert k["op"] == op["op"], f"span {k['id']}: op id differs"
            assert prev_end <= k["start_ns"] <= k["end_ns"] <= op["end_ns"], \
                f"span {k['id']} not nested in op {pid}"
            prev_end = k["end_ns"]
    return len(ops)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} trace={trace}"
            r = run(w["name"], args.seconds, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            assert r["correct"], f"{name}: not correct"
            assert r["failed"] == 0 and r["attempted"] > 0, \
                f"{name}: fail_ratio {r['failed']}/{r['attempted']}"
            assert got == want, f"{name}: metrics differ from BENCHMARK.json"
            for k, v in r["metrics"].items():
                assert math.isfinite(v["value"]), f"{name}: {k} not finite"
            extra = ""
            if trace and w["name"].startswith("kv-"):
                extra = f", {check_spans(w['name'])} sampled ops nest"
            print(f"ok  {name}: {r['attempted']} ops checked, "
                  f"{len(got)} metrics{extra}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
