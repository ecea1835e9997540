"""Bytes held per proof node, as tracemalloc counts them.

    PYTHONPATH=src python scripts/proof_memory.py [--stream N] [--seed S]

Draws the two seeded streams of scripts/proof_digest.py, through its
groups, made by the test suite's generators in tests/_oracles.py: random
quantifier-free sequents (cut to one succedent member) and in-fragment
sequents (F1-F4, LP_INT, LP_CLS and Horn).  Each stream is searched under
c, i, o and restart within 250 nodes per call, one relation at a time, and
only the proofs found are kept.  A line per stream and relation prints the
proofs, their nodes, and the bytes tracemalloc counts as newly held once
the searches are over and the garbage is collected, per node; so it counts
the nodes, their sequents and principals and any formula only a proof
holds.  A stream's `c+i+o` line sums its c, i and o lines.

Then a line loads the dumped i proof of p0 & ... & p699 |- p0 & ... &
p699 (2,098 nodes) and prints the bytes its load_proof result holds per
node.  The document names only the root's sequent, and the loader builds
every other conclusion with the rule table's premise builders, so the
loaded sequents share side tuples where the builders do (a premise that
replaces a succedent member keeps its conclusion's antecedent), as the
searched proof's do.  On Python 3.11 this line read 1182.5 bytes per node
both with that rebuild and with the earlier layout that listed every
conclusion, whose loader shared one tuple per distinct member list.

The intern table's ring of recently built nodes (syntax._RECENT) is
emptied before each count is read, and the table's own size
(syntax._TABLE) is left out of every count, so the counts hold only what
proofs hold: the table resizes whenever its live nodes cross a threshold,
whichever line's searches get there.  So that tracemalloc sees that size,
the table is rebuilt in place, its entries unchanged, once tracing starts.
The next line prints what the ring itself holds once the streams
of the next seed have been drawn and dropped: the bytes that emptying it
frees.  The last line prints the bytes of one interned node of each kind
that stores facts in slots (an atom, an application, a binary connective
and a quantifier), as sys.getsizeof gives them (an atom's or
application's argument tuple not counted), and the pymalloc block that
holds it: the allocator rounds each request up to a multiple of 16 bytes,
so a new slot costs 0 or 16 bytes per node of a kind, not 8.

Sequents are drawn and every search path is warmed before tracing starts,
and each line's proofs are dropped before the next line's searches, so
what a line counts is what its proofs hold.  Figures depend on the
Python version; they are meant to compare two builds on one interpreter.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from seqcalc import Proved, SearchLimits, dump_proof, load_proof, parse_sequent, prove, prove_restart  # noqa: E402
from seqcalc.calculus import proof_size  # noqa: E402
from seqcalc.syntax import _RECENT, _TABLE, BOT, TOP, And, App, Atom, Const, Forall  # noqa: E402

from proof_digest import groups  # noqa: E402

LIMITS = SearchLimits(node_budget=250)
RELATIONS = {
    "c": lambda s: prove(s, "c", LIMITS),
    "i": lambda s: prove(s, "i", LIMITS),
    "o": lambda s: prove(s, "o", LIMITS),
    "restart": lambda s: prove_restart(s, LIMITS),
}


def counted() -> int:
    """The bytes tracemalloc counts, less the intern table's size: the table
    resizes when its live nodes cross a threshold, whichever line's searches
    get there."""
    return tracemalloc.get_traced_memory()[0] - sys.getsizeof(_TABLE)


def traced() -> int:
    """The bytes counted once the ring is empty and the garbage collected."""
    _RECENT.clear()
    gc.collect()
    return counted()


def trace_table() -> None:
    """Rebuild the intern table in place, its entries unchanged, so that
    tracemalloc traces its storage: then a resize changes the traced bytes
    by the change in the table's size."""
    entries = dict(_TABLE)
    _TABLE.clear()
    _TABLE.update(entries)


def held(make) -> tuple[object, int]:
    """make()'s result and the bytes it holds, counted by tracemalloc."""
    before = traced()
    result = make()
    return result, traced() - before


def per_node(nbytes: int, nodes: int) -> str:
    return f"{nbytes / nodes:.1f}" if nodes else "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stream", type=int, default=1000, help="sequents per seeded stream (default 1000)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the streams (default 1)")
    args = ap.parse_args(argv)
    drawn = {name: sequents for name, sequents, _ in groups(args.stream, args.seed) if name != "corpus"}
    conjuncts = " & ".join(f"p{k}" for k in range(700))
    deep = prove(parse_sequent(f"{conjuncts} |- {conjuncts}"), "i")
    text = dump_proof(deep.proof, deep.proof_class)
    for sequents in drawn.values():
        for search in RELATIONS.values():
            for s in sequents[:20]:
                search(s)
    load_proof(text)

    tracemalloc.start()
    trace_table()
    for name, sequents in drawn.items():
        sums = [0, 0, 0]
        for rel, search in RELATIONS.items():
            proofs, nbytes = held(lambda: [out.proof for out in map(search, sequents) if isinstance(out, Proved)])
            nodes = sum(map(proof_size, proofs))
            print(f"{name} {rel}: proofs={len(proofs)} nodes={nodes} bytes_per_node={per_node(nbytes, nodes)}")
            if rel != "restart":
                sums = [sums[0] + len(proofs), sums[1] + nodes, sums[2] + nbytes]
        print(f"{name} c+i+o: proofs={sums[0]} nodes={sums[1]} bytes_per_node={per_node(sums[2], sums[1])}")
    (loaded, _), nbytes = held(lambda: load_proof(text))
    nodes = proof_size(loaded)
    print(f"loaded deep i proof: nodes={nodes} bytes_per_node={per_node(nbytes, nodes)}")
    del loaded
    traced()
    # streams of another seed, drawn and dropped, leave the ring full
    for _ in groups(args.stream, args.seed + 1):
        pass
    gc.collect()
    full = counted()
    print(f"ring of recent nodes: nodes={len(_RECENT)} bytes={full - traced()}")
    tracemalloc.stop()
    kinds = {"Atom": Atom("p", ()), "App": App("f", (Const("a"),)), "binary": And(TOP, BOT), "quantifier": Forall(TOP)}
    sizes = {kind: sys.getsizeof(node) for kind, node in kinds.items()}
    print("interned node bytes:", " ".join(f"{kind}={n} (block {-(-n // 16) * 16})" for kind, n in sizes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
