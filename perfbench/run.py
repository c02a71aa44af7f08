#!/usr/bin/env python3
"""Builds the slider-rs wall-clock benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends on
the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run in this process's working
directory. Its standard output ends with one JSON result line. A traced run
also writes its spans, one JSON object per line, under
<target dir>/perfbench-spans/. The script exits non-zero, without a result,
when the build fails or the run does not finish in time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--toy", action="store_true", help="self-test size")
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    # The engine reads the first two and RUSTFLAGS changes the build; the
    # benchmark fixes thread counts, tracing and build settings itself.
    for var in ("SLIDER_THREADS", "SLIDER_TRACE", "RUSTFLAGS"):
        env.pop(var, None)

    build = ["cargo", "build", "--release", "--offline", "--locked",
             "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "slider-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(target, "perfbench-spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans", spans]
    if args.toy:
        cmd.append("--toy")
    sys.stdout.flush()
    try:
        ran = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
