#!/usr/bin/env python3
"""Self-tests of the wall-clock benchmark, at toy size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs the benchmark's unit tests (`cargo test` in perfbench/), which show
   that each output check accepts the program's real output and rejects a
   deliberately altered one.
2. Runs every workload of perfbench/workloads.json (those of BENCHMARK.json
   and any left out of it) through perfbench/run.py at toy size, untraced
   and traced, and checks the result line: exactly the contract's keys, a
   correct run with no failures, and exactly the end-to-end (untraced) or
   per-layer (traced) metrics of BENCHMARK.json, each with its declared
   unit.
3. Checks that every per-layer metric is mapped to a layer in
   perfbench/workloads.json, and that the workloads there not marked
   "in_benchmark": false are exactly those of BENCHMARK.json.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def layer_names(layers):
    names = set()
    for layer in layers.values():
        for m in layer["metrics"]:
            if "<kind>" in m:
                for kind in ("folding", "randomized", "daba", "daba_lite", "strawman"):
                    names.add(m.replace("<kind>", kind))
            else:
                names.add(m)
    return names


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        described = json.load(f)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")], env=env)
    if tests.returncode != 0:
        fail("cargo test in perfbench/ failed")

    mapped = layer_names(described["layers"])
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            fail(f"per-layer metric {m['name']} is mapped to no layer in workloads.json")
    names = [w["name"] for w in bench["workloads"]]
    benchmarked = [name for name, w in described["workloads"].items()
                   if w.get("in_benchmark", True)]
    if sorted(names) != sorted(benchmarked):
        fail("BENCHMARK.json and workloads.json list different workloads")

    for workload in described["workloads"]:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "5", "--seconds", "1", "--trace", trace, "--toy"]
            ran = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            if ran.returncode != 0:
                fail(f"{workload} trace {trace} exited {ran.returncode}: {ran.stderr[-2000:]}")
            result = json.loads(ran.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: not a clean run: {ran.stdout[-2000:]}")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in expected}
            if sorted(got) != sorted(want):
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                fail(f"{workload} trace {trace}: missing {missing}, unexpected {extra}")
            for name, unit in want.items():
                value = got[name]
                if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                    fail(f"{workload} trace {trace}: {name} = {value}, want unit {unit}")
            print(f"selftest: {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, all correct")
    print("selftest: ok")


if __name__ == "__main__":
    main()
