"""Alternating benchmark pairs of two checkouts, summarized per metric.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W --seeds A-B
        [--seconds 12] [--trace 0] [--out FILE] [--previous FILE]

Runs ``perfbench/run.py`` of each checkout once per seed, the parent first
on even pairs and the change first on odd ones, so drift in the machine's
speed falls on both sides alike.  Each run must report ``correct`` and
``failed: 0``; its metrics and the unscaled figures of its ``raw:`` line
are kept.  Each run gets a fresh, empty ``PYTHONPYCACHEPREFIX``, so
neither checkout imports bytecode compiled before it: stale bytecode on
one side skews that side's ``setup_s``.  Prints, per metric, each side's
median and quartiles, the relative change of the medians and the number
of pairs the change won (a tie is not a win); the direction of "better"
comes from the change's ``BENCHMARK.json``.  Beside a metric that the
``raw:`` lines also report, it prints the unscaled medians, their relative
change and the pairs the change won on them, and ``unresolved`` where the
scaled and the unscaled won counts lean opposite ways: the change won more
than half the pairs on one figure and fewer than half on the other.  Then,
per end-to-end metric, it prints that file's bound and a verdict: ``worse
beyond bound`` when the change's median is worse than the parent's by more
than the bound; else ``unresolved`` when
the parent's quartile spread, relative to its median, exceeds the bound
and not every change run reads better than every parent run; else
``within bound``.  With ``--out`` the pairs and the summary are also
written to FILE, a JSON object with one entry per workload and trace
setting; entries already in FILE for other workloads are kept.  With
``--previous`` each metric's change median is also set against the change
median of the same entry in an earlier such file, so a series of files
reads as a trajectory; metrics or entries that file lacks are skipped.  Neither
checkout is modified, apart from the span files ``perfbench/run.py``
writes under its ignored ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run's metrics and the unscaled figures of its raw: line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{checkout}, seed {seed}: correct={result.get('correct')} failed={result.get('failed')}")
    raw = next((line.split()[1:] for line in lines if line.startswith("raw:")), [])
    return {name: m["value"] for name, m in result["metrics"].items()}, dict(f.split("=", 1) for f in raw)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _spec(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """The direction of every metric, and the bound of each end-to-end one."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> str:
    """Whether the change's median stays within bound of the parent's (see
    the module docstring)."""
    (pq1, pmed, pq3), cmed = _quartiles(parent), _quartiles(change)[1]
    if not pmed:
        return "unresolved" if cmed else "within bound"
    worse = (pmed - cmed if higher else cmed - pmed) / abs(pmed)
    if worse > bound:
        return "worse beyond bound"
    better_always = min(change) > max(parent) if higher else max(change) < min(parent)
    if (pq3 - pq1) / abs(pmed) > bound and not better_always:
        return "unresolved"
    return "within bound"


def _won(parent: list[float], change: list[float], higher: bool) -> int:
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change))


def _leaning(won: int, pairs: int) -> int:
    """1 when the change won more than half the pairs, -1 when fewer."""
    return (2 * won > pairs) - (2 * won < pairs)


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric both runs reported: each side's quartiles, the median's
    relative change and the pairs the change won; per end-to-end metric
    also its bound and verdict; per metric that every pair's raw figures
    hold, the unscaled medians, their relative change and won count, and
    whether the two won counts lean opposite ways (see the module
    docstring)."""
    out = {}
    for name in pairs[0]["parent"]:
        if name not in pairs[0]["change"]:
            continue
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        higher = better.get(name, "higher") == "higher"
        won = _won(parent, change, higher)
        pq, cq = _quartiles(parent), _quartiles(change)
        out[name] = {
            "better": "higher" if higher else "lower",
            "parent": dict(zip(("q1", "median", "q3"), pq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "relative": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
            "won": won,
            "pairs": len(pairs),
        }
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["verdict"] = verdict(parent, change, higher, bounds[name])
        if all(name in p.get("parent_raw", ()) and name in p.get("change_raw", ()) for p in pairs):
            parent = [float(p["parent_raw"][name]) for p in pairs]
            change = [float(p["change_raw"][name]) for p in pairs]
            pmed, cmed = statistics.median(parent), statistics.median(change)
            raw_won = _won(parent, change, higher)
            out[name]["raw"] = {
                "parent": pmed,
                "change": cmed,
                "relative": (cmed - pmed) / pmed if pmed else None,
                "won": raw_won,
            }
            out[name]["unresolved"] = _leaning(won, len(pairs)) * _leaning(raw_won, len(pairs)) < 0
    return out


def against_previous(summary: dict[str, dict], previous: dict[str, dict]) -> dict[str, dict]:
    """Per metric in both summaries: the earlier and the present change
    median and the relative change between them."""
    out = {}
    for name, m in summary.items():
        if name not in previous:
            continue
        before, now = previous[name]["change"]["median"], m["change"]["median"]
        out[name] = {"previous": before, "change": now, "relative": (now - before) / before if before else None}
    return out


def _percent(relative: float | None) -> str:
    return "" if relative is None else f"{relative:+.1%}"


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--previous", type=Path, help="an earlier --out file to set the change medians against")
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], pair[f"{side}_raw"] = _run(sides[side], args.workload, seed, args.seconds, args.trace)
        pairs.append(pair)
        ops = "ops_per_s" if "ops_per_s" in pair["parent"] else None
        if ops:
            print(f"seed {seed}: {ops} {pair['parent'][ops]:.1f} -> {pair['change'][ops]:.1f}", flush=True)

    summary = summarize(pairs, *_spec(sides["change"]))
    print(f"{args.workload}, {len(pairs)} pairs, --seconds {args.seconds:g} --trace {args.trace}")
    print(
        f"{'metric':36} {'parent median [q1-q3]':>28} {'change median [q1-q3]':>28} {'change':>8} won"
        f"   {'raw parent':>10} {'raw change':>10} {'change':>8} won"
    )
    for name, m in summary.items():
        p, c = m["parent"], m["change"]
        line = (
            f"{name:36} {p['median']:>10.4g} [{p['q1']:.4g}-{p['q3']:.4g}]".ljust(66)
            + f"{c['median']:>10.4g} [{c['q1']:.4g}-{c['q3']:.4g}]".ljust(29)
            + f"{_percent(m['relative']):>8} {m['won']}/{m['pairs']}"
        )
        if "raw" in m:
            r = m["raw"]
            line += f"   {r['parent']:>10.4g} {r['change']:>10.4g} {_percent(r['relative']):>8} {r['won']}/{m['pairs']}"
            if m["unresolved"]:
                line += "  unresolved"
        print(line)
    print(f"{'end-to-end metric':36} {'bound':>6} {'change':>8} {'parent spread':>14}  verdict")
    for name, m in summary.items():
        if "verdict" in m:
            p = m["parent"]
            rel = _percent(m["relative"])
            spread = f"{(p['q3'] - p['q1']) / abs(p['median']):.1%}" if p["median"] else ""
            print(f"{name:36} {m['bound']:>6.0%} {rel:>8} {spread:>14}  {m['verdict']}")

    entry = args.workload if args.trace == 0 else f"{args.workload} --trace 1"
    if args.previous:
        earlier = json.loads(args.previous.read_text()).get("workloads", {}).get(entry)
        if earlier is None:
            print(f"{args.previous} has no entry {entry!r}")
        else:
            print(f"change medians against {args.previous}, entry {entry!r}")
            print(f"{'metric':36} {'previous':>12} {'now':>12} {'change':>8}")
            for name, m in against_previous(summary, earlier["summary"]).items():
                rel = _percent(m["relative"])
                print(f"{name:36} {m['previous']:>12.4g} {m['change']:>12.4g} {rel:>8}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {})[entry] = {
            "seconds": args.seconds,
            "trace": args.trace,
            "pairs": pairs,
            "summary": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
