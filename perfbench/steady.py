"""Run a workload several times in fresh processes and report how steady
each metric is against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload prop-decide --runs 10 --first-seed 1

Each run gets its own seed (first-seed, first-seed + 1, ...) and goes
through run.py exactly as a single run does.  For every metric the table
gives the median, the first and third quartiles (``statistics.quantiles``
with n=4), the spread (q3 - q1) / median and the metric's bound; ``ok``
means the spread is within a third of the bound.  The failed share of
attempted operations is listed per run, since it must not change.  With
``--json FILE`` the per-run results are also written out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bounds(trace: int) -> tuple[dict[str, dict], int]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}, spec["run_seconds"]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the per-run results to this file")
    args = ap.parse_args(argv)

    bounds, seconds = _bounds(args.trace)
    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        raw = next((line for line in lines if line.startswith("raw: ")), "")
        results.append({"seed": seed, "result": result, "raw": raw})
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} share={share:.6f} {raw}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
    for name, spec in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = spec.get("bound")
        ok = "" if bound is None else ("yes" if spread <= bound / 3 else ("within bound" if spread <= bound else "NO"))
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}  {ok}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
