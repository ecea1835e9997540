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
    documents = []
    sides = {tag: alternate.build(alternate.load_workloads(REPO, tag), documents) for tag in ("base", "change")}
    assert sys.modules["seqcalc_base"] is not sys.modules["seqcalc_change"]
    # the fault item, then the round's and the warm-up's proof items
    assert len(documents) == 3 and len(documents[0]) == 1
    lists = ["prop-decide", "fo-reduction", "proof-pipeline"]
    # both sides run the proofs of the documents, each loaded by its own tree
    labels = [[op.label for op in side["proof-pipeline"]] for side in sides.values()]
    assert labels[0] == labels[1]
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


def test_the_change_side_runs_the_proofs_the_base_side_wrote(alternate):
    workloads = alternate.load_workloads(REPO, "change")
    w = workloads.ProofPipeline(alternate.SEED, 1, alternate.NoTracer())
    searched = []
    w._items = lambda *args: searched.append(args)
    w._fault_item = lambda *args: searched.append(args)
    # documents as the base side writes them: the fault item, then two lists
    proof = workloads.Proof(workloads.RuleId.AXIOM, workloads.parse_sequent("q |- q"))
    text = workloads.dump_proof(proof, workloads.ProofClass("cstar"))
    documents = [[(text, None)], [(text, text)], []]
    alternate.share_proofs(w, workloads, documents)
    w.setup(0)
    assert searched == []
    assert len(w.ops) == 2 and w.warm == []
    assert {op.label for op in w.ops} == {"cstar proof of q |- q"}
    assert all(op.check(op.run()) is None for op in w.ops)
