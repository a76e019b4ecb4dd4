#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload namespace|bulk|shared-load \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark executable
(perfbench/main.ml and the libraries it links) with dune, then runs it.
The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics.  A traced run also writes its
per-op spans and the Obs Chrome trace under perfbench/out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["namespace", "bulk", "shared-load"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no source tree at %s to build the system from" % ROOT,
              file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2

    # Build output goes to stderr: stdout ends with the result line.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join(ROOT, "perfbench", "out")],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
