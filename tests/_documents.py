"""Hand-written flat proof documents shared by the API and CLI tests."""

from __future__ import annotations

import copy

#: q, s |- q & s under class c, by and-r over two axioms
FLAT = {
    "format": 3,
    "class": "c",
    "ante": ["q", "s"],
    "succ": ["q & s"],
    "nodes": [
        {"rule": "axiom"},
        {"rule": "axiom"},
        {"rule": "and-r", "principal": ["succ", 0], "premises": [0, 1]},
    ],
}


#: JSON text nested past what json's recursive decoder can read
DEEPLY_NESTED = '{"format": 3, "class": "c", "ante": [], "succ": [], "nodes": %s}' % ("[" * 100_000 + "]" * 100_000)


def _unused_node(doc: dict) -> None:
    nodes = doc["nodes"]
    nodes.insert(0, dict(nodes[0]))
    nodes[-1]["premises"] = [1, 2]


def _three_premises(doc: dict) -> None:
    doc["nodes"].insert(0, {"rule": "axiom"})
    doc["nodes"][-1]["premises"] = [0, 1, 2]


def _axiom_with_a_premise(doc: dict) -> None:
    doc["nodes"][1:2] = [{"rule": "axiom"}, {"rule": "axiom", "premises": [1]}]
    doc["nodes"][-1]["premises"] = [0, 2]


def _nested(doc: dict) -> None:
    doc.clear()
    doc.update({"class": "c", "rule": "axiom", "sequent": {"ante": ["q"], "succ": ["q"]}, "premises": []})


def _replaced(ante: list[str], succ: list[str], rule: dict):
    """An edit that makes the document one rule node over axioms, proving
    ante |- succ."""
    nodes = [{"rule": "axiom"} for _ in rule.get("premises", ())] + [rule]
    return lambda doc: doc.update(copy.deepcopy({"ante": ante, "succ": succ, "nodes": nodes}))


def _imp_l(split) -> dict:
    """The imp-l node of q, q => s |- s (its principal at index 1) with the
    given split, left out when None; split [] makes a valid proof."""
    node = {"rule": "imp-l", "principal": ["ante", 1], "split": split, "premises": [0, 1]}
    if split is None:
        del node["split"]
    return node


def _split(split):
    return _replaced(["q", "q => s"], ["s"], _imp_l(split))


#: each way a document can break the flat layout or fail to rebuild: an
#: edit of a copy of FLAT, and the start of the ValueError text the loader
#: raises.  The formula-index cases give imp-l's split, the indices of
#: succedent members, a bad value.
MALFORMED = {
    "formula-index-not-int": (_split(["0"]), "split must be a list of indices below 1"),
    "formula-index-bool": (_split([True]), "split must be a list of indices below 1"),
    "formula-index-too-big": (_split([1]), "split must be a list of indices below 1"),
    "formula-index-negative": (_split([-1]), "split must be a list of indices below 1"),
    "formula-indices-not-a-list": (_split("0"), "split must be a list"),
    "formulas-not-a-list": (lambda d: d.update(ante="q"), "ante, succ and nodes must be lists"),
    "premise-index-not-int": (
        lambda d: d["nodes"][2].update(premises=[0, 1.0]),
        "premises must be a list of indices below 2",
    ),
    "premise-index-too-big": (
        lambda d: d["nodes"][2].update(premises=[0, 9]),
        "premises must be a list of indices below 2",
    ),
    "premise-index-not-below-own": (
        lambda d: d["nodes"][2].update(premises=[0, 2]),
        "premises must be a list of indices below 2",
    ),
    "premise-of-itself": (
        lambda d: d["nodes"][0].update(premises=[0]),
        "premises must be a list of indices below 0",
    ),
    "node-shared": (
        lambda d: d["nodes"][2].update(premises=[0, 0]),
        "node 0 is a premise of more than one node",
    ),
    "node-unused": (_unused_node, "node 0 is not the premise of any node"),
    "principal-bad-side": (
        lambda d: d["nodes"][2].update(principal=["left", 0]),
        "bad principal ['left', 0]",
    ),
    "principal-not-a-pair": (
        lambda d: d["nodes"][2].update(principal={"side": "succ", "index": 0}),
        "bad principal",
    ),
    "principal-index-not-int": (
        lambda d: d["nodes"][2].update(principal=["succ", "0"]),
        "bad principal ['succ', '0']",
    ),
    "principal-missing": (
        lambda d: d["nodes"][2].pop("principal"),
        "node 2: rule and-r needs a principal formula",
    ),
    "principal-wrong-side": (
        lambda d: d["nodes"][2].update(principal=["ante", 0]),
        "node 2: rule and-r expects its principal on the succ side",
    ),
    "principal-out-of-range": (
        lambda d: d["nodes"][2].update(principal=["succ", 1]),
        "node 2: principal index 1 out of range",
    ),
    "principal-wrong-connective": (
        lambda d: d["nodes"][2].update(rule="or-r-left"),
        "node 2: principal of or-r-left must be a disjunction",
    ),
    "witness-missing": (
        _replaced(["forall x. p(x)"], ["p(a)"], {"rule": "forall-l", "principal": ["ante", 0], "premises": [0]}),
        "node 1: rule forall-l needs a witness term",
    ),
    "eigen-missing": (
        _replaced(["exists x. p(x)"], ["q"], {"rule": "exists-l", "principal": ["ante", 0], "premises": [0]}),
        "node 1: rule exists-l needs an eigenvariable",
    ),
    "eigen-not-fresh": (
        _replaced(
            ["p(c)", "exists x. p(x)"], ["q"], {"rule": "exists-l", "principal": ["ante", 1], "eigen": "c", "premises": [0]}
        ),
        "node 1: eigenvariable 'c' already occurs in the conclusion",
    ),
    "split-missing": (_split(None), "node 2: rule imp-l needs a split"),
    "split-member-twice": (
        _split([0, 0]),
        "node 2: imp-l: the first premise's succedent must be the implication's antecedent",
    ),
    "too-few-premises": (
        lambda d: d["nodes"][2].update(premises=[1]),
        "node 2: rule and-r derives 2 premises, found 1",
    ),
    "too-many-premises": (_three_premises, "node 3: rule and-r derives 2 premises, found 3"),
    "axiom-with-a-premise": (_axiom_with_a_premise, "node 2: rule axiom derives 0 premises, found 1"),
    "restart-without-goal": (
        lambda d: d["nodes"][2].update(rule="restart", premises=[1]),
        "node 2: rule restart needs a restart goal",
    ),
    "no-nodes": (lambda d: d.update(nodes=[]), "proof document has no nodes"),
    "format-missing": (lambda d: d.pop("format"), "unknown proof document format None, expected 3"),
    "format-unknown": (lambda d: d.update(format=1), "unknown proof document format 1, expected 3"),
    "format-previous": (lambda d: d.update(format=2), "unknown proof document format 2, expected 3"),
    "format-as-text": (lambda d: d.update(format="3"), "unknown proof document format '3', expected 3"),
    "nested-document": (_nested, "unknown proof document format None, expected 3"),
    "class-unknown": (lambda d: d.update({"class": "x"}), "unknown proof class 'x'"),
    "nodes-not-a-list": (lambda d: d.update(nodes={}), "ante, succ and nodes must be lists"),
    "eigen-not-a-string": (lambda d: d["nodes"][0].update(eigen=1), "bad eigenvariable 1"),
    "rule-missing": (lambda d: d["nodes"][0].pop("rule"), "malformed proof document: 'rule'"),
}


def malformed(name: str) -> dict:
    doc = copy.deepcopy(FLAT)
    MALFORMED[name][0](doc)
    return doc
