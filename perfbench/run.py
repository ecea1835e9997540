"""Run one workload of the seqcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload prop-decide --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded Python process with a fixed hash seed, against the package
sources under ``src``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prop-decide", "fo-reduction", "proof-pipeline")
#: child processes get this hash seed, so set iteration order and with it
#: every search under a node budget repeats exactly
HASH_SEED = "0"
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqcalc", "__init__.py")):
        print(f"no seqcalc sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"{args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        print(f"{args.workload} printed no result", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
