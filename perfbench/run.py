#!/usr/bin/env python3
"""Builds and runs the MBal benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: hotspot-tcp, zipf-balance, session-seg. The benchmark is a
Cargo package of its own (perfbench/Cargo.toml) built against the
repository's crates; it is built in release mode into CARGO_TARGET_DIR
(default perfbench/target). Spans of a traced run are written under
<target dir>/perfbench-traces. The last line of standard output is one
JSON object with the run's metrics. Exits non-zero, printing no result,
if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hotspot-tcp", "zipf-balance", "session-seg")
# The benchmark ends well within this; the limit only stops a hung run.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "mbal-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
