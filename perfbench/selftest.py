"""Check the benchmark's oracles on cases whose answers are known.

    PYTHONPATH=src python3 perfbench/selftest.py

Hand-known formulas (Peirce's law, excluded middle and others) and the
quantifier-free entries of the package's golden corpus, whose C and I
columns the truth tables and the G4ip decider must reproduce.  Every run of
the benchmark makes the same checks and reports ``correct: false`` if one
fails.
"""

from __future__ import annotations

import sys

from formulas import BOT, TOP
from oracles import G4ip, classically_valid

_Q, _S, _T = ("atom", "q"), ("atom", "s"), ("atom", "t")


def _imp(a, b):
    return ("imp", a, b)


def _neg(a):
    return ("imp", a, BOT)


#: (name, antecedent, goal, classically valid, intuitionistically valid)
HAND_KNOWN = (
    ("Peirce's law", (), _imp(_imp(_imp(_Q, _S), _Q), _Q), True, False),
    ("excluded middle", (), ("or", _Q, _neg(_Q)), True, False),
    ("double-negation elimination", (), _imp(_neg(_neg(_Q)), _Q), True, False),
    ("linearity", (), ("or", _imp(_Q, _S), _imp(_S, _Q)), True, False),
    ("double-negated excluded middle", (), _neg(_neg(("or", _Q, _neg(_Q)))), True, True),
    ("double-negation introduction", (), _imp(_Q, _neg(_neg(_Q))), True, True),
    ("triple negation", (_neg(_neg(_neg(_Q))),), _neg(_Q), True, True),
    ("curried modus ponens", (_imp(_Q, _imp(_S, _T)), _Q, _S), _T, True, True),
    ("ex falso", (BOT,), _Q, True, True),
    ("verum", (), TOP, True, True),
    ("unrelated atoms", (_Q,), _S, False, False),
    ("converse implication", (_imp(_Q, _S),), _imp(_S, _Q), False, False),
    ("nested implication-left", (_imp(_imp(_Q, _S), _T), _imp(_S, _T)), _T, False, False),
    ("nested implication-left, provable", (_imp(_imp(_Q, _S), _T), _S), _T, True, True),
)


def _from_package(f) -> tuple:
    """The benchmark's tuple form of a quantifier-free package formula."""
    name = type(f).__name__
    if name == "Atom":
        return ("atom", f.pred if not f.args else f"{f.pred}({','.join(a.name for a in f.args)})")
    if name in ("Top", "Bot"):
        return (name.lower(),)
    if name in ("And", "Or", "Imp"):
        return (name.lower(), _from_package(f.left), _from_package(f.right))
    raise ValueError(f"not quantifier-free: {name}")


def _corpus_cases() -> list[tuple]:
    from seqcalc import parse_corpus
    from workloads import corpus_text

    cases = []
    for e in parse_corpus(corpus_text()):
        try:
            ante = tuple(_from_package(f) for f in e.sequent.ante)
            succ = tuple(_from_package(f) for f in e.sequent.succ)
        except ValueError:
            continue
        cases.append((f"corpus {e.name}", ante, succ, e.classical, e.intuitionistic))
    return cases


def problems() -> list[str]:
    g4ip = G4ip()
    out = []
    cases = [(n, a, (g,), c, i) for n, a, g, c, i in HAND_KNOWN] + _corpus_cases()
    for name, ante, succ, c_valid, i_valid in cases:
        if classically_valid(ante, succ) != c_valid:
            out.append(f"truth tables get {name} wrong")
        if len(succ) == 1 and g4ip.valid(ante, succ[0]) != i_valid:
            out.append(f"G4ip gets {name} wrong")
    return out


if __name__ == "__main__":
    found = problems()
    for p in found:
        print(p)
    print(f"{len(HAND_KNOWN)} hand-known cases and {len(_corpus_cases())} corpus entries: "
          + ("all agree" if not found else f"{len(found)} disagreements"))
    sys.exit(1 if found else 0)
