"""Digest of the package's search output, to show that a change keeps it.

    PYTHONPATH=src python scripts/proof_digest.py [--stream N] [--seed S]

Searches the golden corpus and two seeded streams under five relations: c,
i, o, restart (prove_restart) and augment+o (o on the sequent with the
negated goal added).  The streams are random quantifier-free sequents and
in-fragment sequents (F1-F4, LP_INT, LP_CLS and Horn), drawn by the test
suite's generators in tests/_oracles.py.  Each outcome is recorded as the
dump_proof document of a Proved outcome, or as the outcome's kind
otherwise, and each group prints its count of outcomes and the sha256 of
their records, in order; the all line covers all groups.  Two builds that
print the same lines searched every sequent to the same outcome and the
same proof, byte for byte.

A last line, transforms, covers the proof transforms on every proof the
corpus group found: expand_starred, extract_intuitionistic, and
eliminate_contractions both of the expanded c proof and of a copy of each
starred proof with seeded contractions inserted (decorate_with_contractions
in tests/_oracles.py).  Each result is recorded as its dump_proof document,
or as the class of the error it raised.  It is not part of the all line.

The weaken line covers weakening with eigenvariable renaming on the same
proofs: for every eigenvariable e of a proof, in the order the proof's
nodes first bind them, weaken by w(e) on the antecedent and on the
succedent, recorded alike.

The eta line covers eta expansion, which turns a compound axiom into atomic
ones: the identity proof of every distinct member of the corpus sequents,
then expand_starred, extract_intuitionistic and eliminate_contractions of a
decorated copy, as on the transforms line, of every c and i proof of a
corpus sequent found with strengthened (compound) axioms.

The roundtrip line covers load_proof: every Proved document of the all
line, loaded and dumped again in the same process, so later documents
load and dump through the text memos that earlier ones filled.  The output
does not depend on PYTHONHASHSEED.

Every document the script records must load back as the proof and class
it was dumped from (==, so up to binder names): the script exits with
status 1 at the first that does not.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from seqcalc import (  # noqa: E402
    Proved,
    SearchLimits,
    augment,
    dump_proof,
    load_proof,
    parse_corpus,
    prove,
    prove_restart,
)
from seqcalc.calculus import CLASSICAL_STAR, proof_nodes  # noqa: E402
from seqcalc.syntax import Atom, Const, Sequent  # noqa: E402
from seqcalc.transform import (  # noqa: E402
    TransformError,
    eliminate_contractions,
    expand_starred,
    extract_intuitionistic,
    identity_proof,
    weaken,
)

from _oracles import (  # noqa: E402
    decorate_with_contractions,
    random_fragment_sequent,
    random_horn_sequent,
    random_propositional_sequent,
)

CORPUS_LIMITS = SearchLimits(node_budget=5_000)
STREAM_LIMITS = SearchLimits(node_budget=250)
ETA_LIMITS = SearchLimits(node_budget=5_000, strengthened_axioms=True)
FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls", "horn")


def _outcome(search):
    """The search's outcome, or the ValueError it raised on refusing the sequent."""
    try:
        return search()
    except ValueError as exc:
        return exc


def _dumped(p, cls) -> str:
    """dump_proof(p, cls); the script exits with an error unless the
    document loads back as (p, cls)."""
    text = dump_proof(p, cls)
    if load_proof(text) != (p, cls):
        sys.exit(f"a document does not load back as the proof it was dumped from: {text}")
    return text


def _record(out) -> str:
    if isinstance(out, Proved):
        return _dumped(out.proof, out.proof_class)
    return type(out).__name__


def _transformed(make, cls) -> str:
    try:
        return _dumped(make(), cls)
    except TransformError as exc:
        return type(exc).__name__


def _transforms(out: Proved, seed: int, expanded: bool = True):
    """(name, record) for each transform applied to the proof of out; the
    elimination on the expanded c proof only if expanded."""
    p, cls = out.proof, out.proof_class
    yield "expand", _transformed(lambda: expand_starred(p), cls)
    yield "extract", _transformed(lambda: extract_intuitionistic(p), cls)
    if expanded and cls.kind == "cstar":
        yield "elim-expanded", _transformed(lambda: eliminate_contractions(expand_starred(p)), cls)
    if cls.kind in ("cstar", "istar"):
        rng = random.Random(seed)
        yield "elim-decorated", _transformed(
            lambda: eliminate_contractions(decorate_with_contractions(rng, p, 2)), cls
        )


def _weakenings(out: Proved):
    """(eigenvariable, side, record) for each weakening of the proof of out
    by w(e), e an eigenvariable the proof binds."""
    p, cls = out.proof, out.proof_class
    for e in dict.fromkeys(n.eigen for n in proof_nodes(p) if n.eigen):
        w = (Atom("w", (Const(e),)),)
        yield e, "ante", _transformed(lambda: weaken(p, extra_ante=w), cls)
        yield e, "succ", _transformed(lambda: weaken(p, extra_succ=w), cls)


def _eta(sequents: list[Sequent], seed: int):
    """(name, record) for the identity proof of each distinct member of the
    sequents, then for each transform but elim-expanded of each c and i proof
    of them with strengthened axioms."""
    for f in dict.fromkeys(f for s in sequents for f in s.ante + s.succ):
        yield "identity", _transformed(lambda: identity_proof(f), CLASSICAL_STAR)
    k = 0
    for s in sequents:
        for rel in ("c", "i"):
            out = _outcome(lambda: prove(s, rel, ETA_LIMITS))
            if isinstance(out, Proved):
                for step, record in _transforms(out, seed + k, expanded=False):
                    yield f"{rel}\t{step}", record
                k += 1


def _relations(s: Sequent, limits: SearchLimits):
    """(name, search) for each relation; a relation that refuses the
    sequent's shape raises ValueError, which is recorded as such."""
    yield "c", lambda: prove(s, "c", limits)
    yield "i", lambda: prove(s, "i", limits)
    yield "o", lambda: prove(s, "o", limits)
    yield "restart", lambda: prove_restart(s, limits)
    yield "augment-o", lambda: prove(augment(s), "o", limits)


def _single(s: Sequent) -> Sequent:
    return Sequent(s.ante, s.succ[:1] or (Atom("q"),))


def groups(stream: int, seed: int):
    """(group name, [sequent], limits) in a fixed order."""
    text = (ROOT / "src/seqcalc/data/paper.corpus").read_text(encoding="utf-8")
    yield "corpus", [e.sequent for e in parse_corpus(text)], CORPUS_LIMITS
    rng = random.Random(seed)
    yield "quantifier-free", [_single(random_propositional_sequent(rng, 8)) for _ in range(stream)], STREAM_LIMITS
    rng = random.Random(seed + 1)
    drawn = []
    for k in range(stream):
        frag, j = FRAGMENTS[k % len(FRAGMENTS)], k // len(FRAGMENTS)
        if frag == "horn":
            drawn.append(random_horn_sequent(rng))
        else:
            drawn.append(random_fragment_sequent(rng, frag, 1 + j % 3, 1 + (j // 3) % 3, 1 + (j // 9) % 3))
    yield "fragment", drawn, STREAM_LIMITS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stream", type=int, default=1000, help="sequents per seeded stream (default 1000)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the streams (default 1)")
    args = ap.parse_args(argv)
    total, n_total = hashlib.sha256(), 0
    reloaded, n_reloaded = hashlib.sha256(), 0
    proved: list[tuple[str, Proved]] = []
    for name, sequents, limits in groups(args.stream, args.seed):
        if name == "corpus":
            corpus = sequents
        h, n = hashlib.sha256(), 0
        for s in sequents:
            for rel, search in _relations(s, limits):
                out = _outcome(search)
                record = _record(out)
                if isinstance(out, Proved):
                    if name == "corpus":
                        proved.append((rel, out))
                    reloaded.update(f"{rel}\t{dump_proof(*load_proof(record))}\n".encode())
                    n_reloaded += 1
                line = f"{rel}\t{record}\n".encode()
                h.update(line)
                total.update(line)
                n += 1
        n_total += n
        print(f"{name} {n} {h.hexdigest()}")
    print(f"all {n_total} {total.hexdigest()}")
    h, n = hashlib.sha256(), 0
    for k, (rel, out) in enumerate(proved):
        for step, record in _transforms(out, args.seed + k):
            h.update(f"{rel}\t{step}\t{record}\n".encode())
            n += 1
    print(f"transforms {n} {h.hexdigest()}")
    h, n = hashlib.sha256(), 0
    for rel, out in proved:
        for e, side, record in _weakenings(out):
            h.update(f"{rel}\t{e}\t{side}\t{record}\n".encode())
            n += 1
    print(f"weaken {n} {h.hexdigest()}")
    h, n = hashlib.sha256(), 0
    for step, record in _eta(corpus, args.seed):
        h.update(f"{step}\t{record}\n".encode())
        n += 1
    print(f"eta {n} {h.hexdigest()}")
    print(f"roundtrip {n_reloaded} {reloaded.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
