"""One benchmark run of one workload, in a fresh process (started by run.py).

Prints a line per failed operation, a line of raw (unscaled) figures, and as
its last line the JSON result.  Exits non-zero without a result when the
package cannot be imported or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import timing
from timing import Meter, NoTracer, Tracer, clock, probe

SETUP_REPS = 3
#: operations of a warm-up are recorded under this index; their spans are
#: dropped from the per-layer figures
WARM_OP = -2
SETUP_OP = -1
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # reported as a failed operation
        return exc


def _setup(wl, tracer) -> tuple[list[float], list[float], object]:
    """Set the workload up SETUP_REPS times; return the raw time of each
    repetition, the probe times taken before, between and after them, and
    the tally of the first repetition, the one whose spans are kept."""
    from workloads import Tally

    raw, probes, first = [], [probe()], None
    for rep in range(SETUP_REPS):
        wl.tally = Tally()
        mark = len(tracer.spans)
        t0 = clock()
        tracer.op = SETUP_OP
        wl.setup(rep)
        tracer.op = WARM_OP
        for op in wl.warm:
            _attempt(op.run)
        raw.append(clock() - t0)
        probes.append(probe())
        if rep == 0:
            first = wl.tally
        else:
            del tracer.spans[mark:]
    return raw, probes, first


def _per_layer(wl, tracer, meter: Meter, setup_factor: float) -> dict[str, tuple[float, str]]:
    busy: dict[str, float] = {}
    durs: dict[str, list[float]] = {}
    for op, layer, t0, t1 in tracer.spans:
        if op == WARM_OP:
            continue
        d = (t1 - t0) * (setup_factor if op == SETUP_OP else meter.factor(op))
        busy[layer] = busy.get(layer, 0.0) + d
        durs.setdefault(layer, []).append(d)
    counts = wl.tally.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for rel in ("c", "i", "o", "restart", "augment-o"):
        layer = f"search.{rel}"
        m[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        if rel in ("c", "i", "o"):
            m[f"{layer}.call_p50_ms"] = (statistics.median(durs[layer]) * 1e3 if layer in durs else 0.0, "ms")
        m[f"{layer}.decided_per_call"] = (ratio(counts.get(f"{layer}.decided", 0), counts.get(f"{layer}.calls", 0)), "ratio")
    nodes = counts.get("calculus.nodes", 0)
    m["calculus.check.busy_s"] = (busy.get("calculus.check", 0.0), "s")
    m["calculus.check.nodes_per_s"] = (ratio(nodes, busy.get("calculus.check", 0.0)), "1/s")
    m["calculus.dump.busy_s"] = (busy.get("calculus.dump", 0.0), "s")
    m["calculus.dump.bytes_per_node"] = (ratio(counts.get("calculus.bytes", 0), nodes), "B")
    m["calculus.load.busy_s"] = (busy.get("calculus.load", 0.0), "s")
    m["calculus.load.nodes_per_s"] = (ratio(nodes, busy.get("calculus.load", 0.0)), "1/s")
    for t in ("expand", "extract", "elim", "augment"):
        m[f"transform.{t}.busy_s"] = (busy.get(f"transform.{t}", 0.0), "s")
    m["transform.extract.applied_per_call"] = (
        ratio(counts.get("transform.extract.applied", 0), counts.get("transform.extract.calls", 0)),
        "ratio",
    )
    m["fragments.busy_s"] = (busy.get("fragments", 0.0), "s")
    m["parser.busy_s"] = (busy.get("parser", 0.0), "s")
    m["parser.chars_per_s"] = (ratio(counts.get("parser.chars", 0), busy.get("parser", 0.0)), "1/s")
    return m


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    wall0 = time.perf_counter()
    t0 = clock()
    import seqcalc  # noqa: F401  (the import is part of set-up)

    import_raw = clock() - t0
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / cls.ROUND_SECONDS))
    tracer = Tracer() if args.trace else NoTracer()
    wl = cls(args.seed, rounds, tracer)
    setup_raw, setup_probes, tally = _setup(wl, tracer)

    wl.tally = tally
    meter = Meter()
    failed = unexpected = 0
    for k, op in enumerate(wl.ops):
        tracer.op = k
        res = meter.timed(_attempt, op.run)
        try:
            problem = op.check(res)
        except Exception as exc:  # a check that cannot run fails the operation
            problem = f"check raised {exc!r}"
        if problem:
            failed += 1
            unexpected += not op.known_fault
            print(f"FAILED [{'known fault' if op.known_fault else 'unexpected'}] {op.label}: {problem}")
    meter.close()
    # set-up is scaled by the median of every probe of the run: its own four
    # probes are single instants, and one taken while the host ran fast
    # moved a run's setup_s by half
    setup_factor = timing.NOMINAL_PROBE_S / statistics.median(setup_probes + meter.probes)
    setup_s = (import_raw + statistics.median(setup_raw)) * setup_factor

    from selftest import problems

    oracle_problems = problems()
    for p in oracle_problems:
        print(f"ORACLE {p}")

    n = len(wl.ops)
    lat_ms = [meter.scaled(k) * 1e3 for k in range(n)]
    busy = sum(lat_ms) / 1e3
    raw_busy = sum(meter.raw)
    if args.trace:
        metrics = _per_layer(wl, tracer, meter, setup_factor)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": rounds, "op_factors": [meter.factor(k) for k in range(n)]},
        )
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / busy, "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (_p90(lat_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "decided": (wl.tally.decided, "count"),
            "proof_json_bytes": (wl.tally.proof_json_bytes, "B"),
        }
    raw_lat = [t * 1e3 for t in meter.raw]
    print(
        f"raw: ops_per_s={n / raw_busy:.4g} latency_p50_ms={statistics.median(raw_lat):.4g} "
        f"latency_p90_ms={_p90(raw_lat):.4g} setup_s={import_raw + statistics.median(setup_raw):.4g} "
        f"speed={meter.speed():.4f} rounds={rounds} ops={n} unexpected_failures={unexpected} "
        f"wall_s={time.perf_counter() - wall0:.1f}"
    )
    result = {
        "correct": unexpected == 0 and not oracle_problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
