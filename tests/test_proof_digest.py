"""scripts/proof_digest.py: search and transform output does not depend on
the hash seed, and stays what it was when the pins below were taken (on
Python 3.11)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqcalc.calculus import CLASSICAL, Proof, RuleId, dump_proof
from seqcalc.parser import parse_sequent

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "proof_digest.py"


def axiom(text: str) -> Proof:
    return Proof(RuleId.AXIOM, parse_sequent(text))


#: the all, transforms, weaken, eta and roundtrip lines of --stream 20; a
#: change that alters any proof the searches, the transforms, weakening or
#: eta expansion emit, or any document load_proof reads back, changes them
PINNED = [
    "all 375 155c06c7b215edd0accb3928f66b6df569955212b4724986ab34bed5d1ac46e6",
    "transforms 310 d824c35600b922bf472f2cc4725321d2ece6ea7f98cd5583db1d488bd6d28439",
    "weaken 166 5d0a607bb86999950489cca7576fc6f866a20da6952326103883d8ef77548235",
    "eta 223 a55b050a19718d0076d7379202d384671783950c9af805364bbd0a1e4373dfaa",
    "roundtrip 239 6474c1578fba11d3b1c831dcfa8b9f1cc1fc7a64824d40a960b3636db2e745cf",
]


def test_proof_digest_is_the_same_under_two_hash_seeds():
    runs = [
        subprocess.Popen(
            [sys.executable, str(SCRIPT), "--stream", "20"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outs = [p.communicate(timeout=600)[0] for p in runs]
    assert [p.returncode for p in runs] == [0, 0]
    assert outs[0] == outs[1]
    assert [line.split()[:2] for line in outs[0].splitlines()] == [
        ["corpus", "175"],
        ["quantifier-free", "100"],
        ["fragment", "100"],
        ["all", "375"],
        ["transforms", "310"],
        ["weaken", "166"],
        ["eta", "223"],
        ["roundtrip", "239"],
    ]
    assert outs[0].splitlines()[-5:] == PINNED


def test_a_document_that_does_not_load_back_stops_the_digest():
    spec = importlib.util.spec_from_file_location("proof_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    good = Proof(RuleId.AND_R, parse_sequent("q, s |- q & s"), (axiom("q, s |- q"), axiom("q, s |- s")), ("succ", 0))
    assert digest._dumped(good, CLASSICAL) == dump_proof(good, CLASSICAL)
    # premises without the context: the loader rebuilds them with it
    bad = Proof(RuleId.AND_R, good.conclusion, (axiom("q |- q"), axiom("s |- s")), ("succ", 0))
    with pytest.raises(SystemExit) as info:
        digest._dumped(bad, CLASSICAL)
    assert str(info.value.code).startswith("a document does not load back as the proof it was dumped from: ")
