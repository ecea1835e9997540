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
    "all 375 2fea99a05403f9d0328301a8c69e00a03ff458b0b7ee22153f9bcf83de9d344a",
    "transforms 310 d61566283aa7cc6b7715bebbe4ed3e87d03d8c4439b69e9e0d6ea8b8045a6b64",
    "weaken 170 0f644da6f48518164fa76d8a5d44dc49f3bbfb5d36ffee0bf5bee5af97fa8e53",
    "eta 223 6842b617da9905e778af862af2900b5ccafca0311a535ea341a4b26292c7db49",
    "roundtrip 239 9d66699f698b13102638bce110247e673a3bd76d314ff7d733ad0699c41f8a5e",
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
        ["weaken", "170"],
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
