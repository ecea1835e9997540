"""scripts/proof_digest.py: search and transform output does not depend on
the hash seed, and stays what it was when the pins below were taken (on
Python 3.11)."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "proof_digest.py"


#: the all, transforms, weaken, eta and roundtrip lines of --stream 20; a
#: change that alters any proof the searches, the transforms, weakening or
#: eta expansion emit, or any document load_proof reads back, changes them
PINNED = [
    "all 375 c9c8b8b9570989986ebd7828e2479aa847659c7405c202472d233b5629989340",
    "transforms 310 8b88f52c57b03b70f2629d44ce3b1f16b1f51d1cd0fd554851b22efbcab40177",
    "weaken 170 12cb1f7915d0c72082fd97bc6ea8af7b40a9867e02f4b054c92778a14e988472",
    "eta 223 92922c74013cec9a945fee33812cc2d60723b71185377ec314c0794bd817b5e7",
    "roundtrip 239 2aa860ab6ce0a2215ff1b2bb051b85c070b3c7319b6e85259368367b0d45f458",
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
