"""scripts/alternate.py: two trees timed in one process, here the repository
against itself."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "alternate.py"


@pytest.fixture
def alternate():
    """The script as a module; the modules it loads are dropped afterwards."""
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("alternate_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_the_repository_against_itself_reads_every_list_with_equal_outcomes(alternate):
    sides = {tag: alternate.build(alternate.load_workloads(REPO, tag)) for tag in ("base", "change")}
    assert sys.modules["seqcalc_base"] is not sys.modules["seqcalc_change"]
    lists = ["prop-decide", "fo-reduction", "proof-pipeline"]
    for side in sides.values():
        assert list(side) == lists
        for name in lists:
            side[name] = side[name][:30]
    lines = alternate.report(alternate.alternate(sides, 2))
    assert [line.split()[0] for line in lines] == lists
    for line in lines:
        assert "ratio median " in line and "change won " in line and "/2 |" in line
        assert line.endswith("outcomes differ on 0")


def test_outcomes_that_differ_in_any_round_are_counted(alternate):
    calls = []

    def flaky():
        calls.append(None)
        return "first" if len(calls) == 1 else 0

    sides = {"base": {"l": [SimpleNamespace(run=lambda: 0)]}, "change": {"l": [SimpleNamespace(run=flaky)]}}
    results = alternate.alternate(sides, 3)
    assert results["l"]["differ"] == 1
    assert alternate.kind((1, ("a", None))) == ("int", ("str", "NoneType"))
    # each differing pair of kinds is printed below its list, base first
    assert results["l"]["pairs"] == {("int", "str"): 1}
    assert alternate.report(results)[1:] == ["  int -> str: 1"]


def test_differing_pairs_are_printed_most_frequent_first(alternate):
    pairs = Counter({("a", "b"): 1, (("S", "c"), ("S", "d")): 2})
    results = {"l": {"times": {"base": [1.0], "change": [0.5]}, "differ": 3, "pairs": pairs}}
    lines = alternate.report(results)
    assert lines[0].endswith("outcomes differ on 3")
    assert lines[1:] == ["  ('S', 'c') -> ('S', 'd'): 2", "  a -> b: 1"]
