"""scripts/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "setup_s": "lower", "latency_p50_ms": "lower", "decided": "higher"}


def _pairs(scaled: dict, raw: dict) -> list[dict]:
    """One pair per position of the lists: scaled[name] and raw[name] are
    (parent, change) lists; raw figures are strings, as a raw: line gives."""
    n = len(next(iter(scaled.values()))[0])
    return [
        {
            "parent": {name: sides[0][i] for name, sides in scaled.items()},
            "change": {name: sides[1][i] for name, sides in scaled.items()},
            "parent_raw": {name: str(sides[0][i]) for name, sides in raw.items()},
            "change_raw": {name: str(sides[1][i]) for name, sides in raw.items()},
        }
        for i in range(n)
    ]


def test_summary_sets_raw_figures_beside_scaled_ones():
    pairs = _pairs(
        {
            # scaled, the change wins 3 of 4; raw, 1 of 4
            "ops_per_s": ([100, 100, 100, 100], [110, 105, 101, 90]),
            # lower is better: 3 of 4 on both figures
            "setup_s": ([2.0, 2.0, 2.0, 2.0], [1.9, 1.8, 2.1, 1.9]),
            # an even split on one figure leans neither way
            "latency_p50_ms": ([1, 1, 1, 1], [0.9, 0.9, 1.1, 1.1]),
            "decided": ([5, 5, 5, 5], [5, 6, 5, 6]),
        },
        {
            "ops_per_s": ([60, 62, 58, 61], [59, 61, 59, 60]),
            "setup_s": ([1.0, 1.0, 1.0, 1.0], [0.9, 0.95, 1.1, 0.9]),
            "latency_p50_ms": ([1, 1, 1, 1], [1.2, 1.2, 1.2, 0.9]),
        },
    )
    out = bench_pairs.summarize(pairs, BETTER, {"ops_per_s": 0.25})
    ops = out["ops_per_s"]
    assert (ops["won"], ops["pairs"], ops["change"]["median"]) == (3, 4, 103)
    assert ops["raw"] == {"parent": 60.5, "change": 59.5, "relative": pytest.approx(-1 / 60.5), "won": 1}
    assert ops["unresolved"] is True
    assert ops["verdict"] == "within bound"
    assert (out["setup_s"]["won"], out["setup_s"]["raw"]["won"], out["setup_s"]["unresolved"]) == (3, 3, False)
    latency = out["latency_p50_ms"]
    assert (latency["won"], latency["raw"]["won"], latency["unresolved"]) == (2, 1, False)
    assert out["decided"]["won"] == 2 and "raw" not in out["decided"] and "unresolved" not in out["decided"]


def test_pairs_without_raw_figures_get_no_raw_summary():
    # files written before the raw: lines were kept have no *_raw entries
    pairs = [{"parent": {"ops_per_s": p}, "change": {"ops_per_s": c}} for p, c in ((100, 90), (100, 95))]
    out = bench_pairs.summarize(pairs, BETTER, {"ops_per_s": 0.25})
    assert out["ops_per_s"]["won"] == 0 and "raw" not in out["ops_per_s"]
