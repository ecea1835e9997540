"""Hand-written flat proof documents shared by the API and CLI tests."""

from __future__ import annotations

import copy

#: q, s |- q & s under class c, by and-r over two axioms
FLAT = {
    "format": 2,
    "class": "c",
    "formulas": ["q", "s", "q & s"],
    "nodes": [
        {"rule": "axiom", "ante": [0, 1], "succ": [0]},
        {"rule": "axiom", "ante": [0, 1], "succ": [1]},
        {"rule": "and-r", "ante": [0, 1], "succ": [2], "principal": ["succ", 0], "premises": [0, 1]},
    ],
}


#: JSON text nested past what json's recursive decoder can read
DEEPLY_NESTED = '{"format": 2, "class": "c", "formulas": [], "nodes": %s}' % ("[" * 100_000 + "]" * 100_000)


def _unused_node(doc: dict) -> None:
    nodes = doc["nodes"]
    nodes.insert(0, dict(nodes[0]))
    nodes[-1]["premises"] = [1, 2]


def _nested(doc: dict) -> None:
    doc.clear()
    doc.update({"class": "c", "rule": "axiom", "sequent": {"ante": ["q"], "succ": ["q"]}, "premises": []})


#: each way a document can break the flat layout's invariants: an edit of a
#: copy of FLAT, and the start of the ValueError text the loader raises
MALFORMED = {
    "formula-index-not-int": (
        lambda d: d["nodes"][0].update(ante=["0", 1]),
        "ante must be a list of indices below 3",
    ),
    "formula-index-bool": (
        lambda d: d["nodes"][0].update(succ=[True]),
        "succ must be a list of indices below 3",
    ),
    "formula-index-too-big": (
        lambda d: d["nodes"][1].update(succ=[3]),
        "succ must be a list of indices below 3",
    ),
    "formula-index-negative": (
        lambda d: d["nodes"][1].update(ante=[-1, 1]),
        "ante must be a list of indices below 3",
    ),
    "formula-indices-not-a-list": (
        lambda d: d["nodes"][1].update(ante="01"),
        "ante must be a list",
    ),
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
    "no-nodes": (lambda d: d.update(nodes=[]), "proof document has no nodes"),
    "format-missing": (lambda d: d.pop("format"), "unknown proof document format None, expected 2"),
    "format-unknown": (lambda d: d.update(format=1), "unknown proof document format 1, expected 2"),
    "format-as-text": (lambda d: d.update(format="2"), "unknown proof document format '2', expected 2"),
    "nested-document": (_nested, "unknown proof document format None, expected 2"),
    "class-unknown": (lambda d: d.update({"class": "x"}), "unknown proof class 'x'"),
    "formulas-not-a-list": (lambda d: d.update(formulas="q"), "formulas and nodes must be lists"),
    "nodes-not-a-list": (lambda d: d.update(nodes={}), "formulas and nodes must be lists"),
    "eigen-not-a-string": (lambda d: d["nodes"][0].update(eigen=1), "bad eigenvariable 1"),
    "rule-missing": (lambda d: d["nodes"][0].pop("rule"), "malformed proof document: 'rule'"),
}


def malformed(name: str) -> dict:
    doc = copy.deepcopy(FLAT)
    MALFORMED[name][0](doc)
    return doc
