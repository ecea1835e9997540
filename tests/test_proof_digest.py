"""scripts/proof_digest.py: search output does not depend on the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "proof_digest.py"


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
    ]
