"""Two source trees timed against each other in one process.

    python scripts/alternate.py BASE CHANGE [--rounds 10]

Loads ``<tree>/src/seqcalc`` of each tree under its own module name
(``seqcalc_base`` and ``seqcalc_change``), so both live in one process and
no speed mode of the host can fall on one side only.  perfbench's
``workloads`` module is loaded once per tree too, with the name ``seqcalc``
bound to that tree's package while it is imported, and each tree builds the
benchmark's three workloads from its own copy, untraced, at seed 7 and at
the rounds a 12-second benchmark run makes: the operation lists are
perfbench's, unchanged, but for proof-pipeline's proofs.  Those the base
tree's set-up searches for are written as dump_proof documents, and each
tree loads its proofs from them with its own load_proof, so both trees run
the same proofs and differ only in the code that runs them, even where the
change makes other proofs.  The change tree's set-up makes no search for
them.

Each side first runs its workloads' warm-up operations, as a benchmark run
does after set-up.  Each round then runs every list once per tree, the base
first on even rounds and the change first on odd ones.  A run's time is
process time, taken after a garbage collection.  Per list it prints each
tree's best and median time, the ratio change/base of the medians and of
the bests, and the rounds the change won (a tie is not a win).  It also
prints, per list, how many operation results had a different kind (their
type names, into tuples) in the two trees, added up over all rounds: 0 when
both trees compute alike in every round.  Below a list with differences
it prints each pair of kinds, base -> change, with its count, most
frequent first, so a change's intended differences read apart from
faults; an operation list longer on one side counts its extra results
in the total only.

perfbench is read, never changed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from timing import NoTracer  # noqa: E402
from worker import _attempt  # noqa: E402

SEED = 7
#: BENCHMARK.json's run_seconds, which fixes each workload's rounds
RUN_SECONDS = 12


def load_package(tree: Path, name: str):
    """The seqcalc package of tree, imported as the top-level module name."""
    init = tree / "src" / "seqcalc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: Path, tag: str):
    """perfbench's workloads module, imported as ``workloads_<tag>`` with
    seqcalc bound to tree's package ``seqcalc_<tag>``."""
    pkg = load_package(tree, f"seqcalc_{tag}")
    saved = sys.modules.get("seqcalc")
    sys.modules["seqcalc"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["seqcalc"]
        else:
            sys.modules["seqcalc"] = saved
    return module


def share_proofs(w, workloads, documents: list) -> None:
    """Make w, a proof-pipeline workload, take its proofs from documents.
    With documents empty, the proofs w's set-up makes (its _fault_item and
    each _items list) are written to it as the dump_proof texts of each
    proof and of its contraction-decorated copy; else set-up makes none and
    reads the texts written, in the same order.  Either way the proofs are
    loaded from the texts by workloads' own load_proof."""
    replay = iter(list(documents)) if documents else None

    def shared(make, single: bool):
        def made(*args):
            if replay is None:
                items = make(*args)
                items = [items] if single else items
                texts = [(dump(i.proof, i.cls), i.decorated and dump(i.decorated, i.cls)) for i in items]
                documents.append(texts)
            else:
                texts = next(replay)
            items = [workloads._Item(*load(p), d and load(d)[0]) for p, d in texts]
            return items[0] if single else items

        return made

    dump, load = workloads.dump_proof, workloads.load_proof
    w._fault_item = shared(w._fault_item, True)
    w._items = shared(w._items, False)


def build(workloads, documents: list) -> dict[str, list]:
    """Each benchmark workload's timed operations, after its warm-up ran;
    proof-pipeline's proofs go through documents (see share_proofs)."""
    lists = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(SEED, max(1, round(RUN_SECONDS / cls.ROUND_SECONDS)), NoTracer())
        if name == "proof-pipeline":
            share_proofs(w, workloads, documents)
        w.setup(0)
        for op in w.warm:
            _attempt(op.run)
        lists[name] = w.ops
    return lists


def kind(result) -> object:
    """A result's type name, or the kinds of a tuple's members."""
    if isinstance(result, tuple):
        return tuple(map(kind, result))
    return type(result).__name__


def timed(ops: list) -> tuple[float, list]:
    gc.collect()
    t0 = time.process_time()
    results = [_attempt(op.run) for op in ops]
    return time.process_time() - t0, [kind(r) for r in results]


def alternate(sides: dict[str, dict[str, list]], rounds: int) -> dict[str, dict]:
    """Per list: each side's times over the rounds, the operations whose
    result kinds differ between the sides, added up over the rounds, and
    those operations counted by pair of kinds (first side's, second's)."""
    names = list(sides)
    lists = list(sides[names[0]])
    times = {name: {side: [] for side in names} for name in lists}
    differ = dict.fromkeys(lists, 0)
    pairs = {name: Counter() for name in lists}
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in lists:
            kinds = {}
            for side in order:
                t, kinds[side] = timed(sides[side][name])
                times[name][side].append(t)
            a, b = (kinds[side] for side in names)
            differ[name] += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            pairs[name].update((x, y) for x, y in zip(a, b) if x != y)
    return {name: {"times": times[name], "differ": differ[name], "pairs": pairs[name]} for name in lists}


def report(results: dict[str, dict]) -> list[str]:
    lines = []
    for name, res in results.items():
        base, change = res["times"].values()
        mb, mc = statistics.median(base), statistics.median(change)
        wins = sum(c < b for b, c in zip(base, change))
        lines.append(
            f"{name:14s} base best {min(base):.4f} median {mb:.4f} s | change best {min(change):.4f} "
            f"median {mc:.4f} s | ratio median {mc / mb:.3f} best {min(change) / min(base):.3f} | "
            f"change won {wins}/{len(base)} | outcomes differ on {res['differ']}"
        )
        lines += [f"  {a} -> {b}: {n}" for (a, b), n in res["pairs"].most_common()]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    # the base side writes the proof documents that the change side reads
    documents: list = []
    sides = {
        tag: build(load_workloads(tree.resolve(), tag), documents)
        for tag, tree in (("base", args.base), ("change", args.change))
    }
    print(", ".join(f"{name} {len(ops)} ops" for name, ops in sides["base"].items()) + f"; {args.rounds} rounds")
    for line in report(alternate(sides, args.rounds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
