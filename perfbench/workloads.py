"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operations.  An operation
is a closure that makes the timed calls into the package (through the
tracer, so a traced run records a span per call) and a check that judges
its result afterwards, outside the timed region, against the benchmark's
own oracles or against properties the method must have.  Nothing is
compared with stored output of the program.

Workload sizes scale with ``rounds``: the number of whole rounds a run
makes, fixed by its ``--seconds``.  Every round holds the same known-fault
operations, so failed operations are the same share of attempted ones in
every run.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import seqcalc
from seqcalc import (
    Forall,
    Proof,
    ProofClass,
    Proved,
    Refuted,
    RuleId,
    SearchLimits,
    TransformError,
    augment,
    check_proof,
    dump_proof,
    eliminate_contractions,
    expand_starred,
    extract_intuitionistic,
    fragment_guarantee,
    load_proof,
    parse_corpus,
    parse_sequent,
    proof_size,
    prove,
    prove_restart,
    rule_profile,
    rule_usage,
    weaken,
)

from formulas import (
    BOT,
    TOP,
    quantifier_free,
    random_fragment_sequent,
    random_horn_sequent,
    random_prop_sequent,
    show_sequent,
)
from oracles import G4ip, classically_valid
from timing import NoTracer

#: expected proof class of each relation's Proved outcomes (restart classes
#: carry their goal and are built per sequent)
_CLASS = {"c": "cstar", "i": "istar", "o": "o", "augment-o": "o"}
#: plain class a starred proof expands into
_EXPANDED = {"cstar": "c", "istar": "i", "o": "o", "og": "og"}

PROP_LIMITS = SearchLimits()
CORPUS_LIMITS = SearchLimits(node_budget=5_000)
STREAM_LIMITS = SearchLimits(node_budget=250)
#: limits of the untimed searches that settle a guarantee check where a
#: timed stream search ended without a proof, tried in turn until one
#: proves the draw.  Depth-first search to the default depth can spend a
#: million nodes on a draw with a depth-6 proof, so the depth grows.
CHECK_LIMITS = tuple(SearchLimits(node_budget=20_000, depth=d) for d in (6, 12, 24, 40))
#: budget within which an untimed i search must prove a first-order LP_INT
#: draw for the check to demand an o proof of it
PREMISE_LIMITS = SearchLimits(node_budget=20_000)
STREAM_FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls", "horn")
#: relation whose provability each fragment guarantees once c proves the
#: draw (for LP_INT, once an intuitionistic proof exists)
GUARANTEED = {"f1": "i", "f2": "i", "f3": "i", "f4": "i", "lp-int": "o", "horn": "o", "lp-cls": "restart"}
#: LP_INT guarantees a uniform proof of intuitionistically provable
#: sequents only; a classically valid hereditary Harrop sequent such as
#: ``t |- (s => q) | s`` has none
NEEDS_INTUITIONISTIC = {"lp-int"}

#: sequents on which ``prove(s, "i")`` returns Refuted although s is
#: intuitionistically valid: the ground prover's loop-check key collapses
#: duplicate antecedent members, so the invertible left rule on a repeated
#: compound member yields a premise whose key equals its own, which is
#: pruned as a cycle
_Q, _S, _T, _R = (("atom", a) for a in ("q", "s", "t", "r(a)"))
LOOPCHECK_FAULTS = (
    ((_Q, ("or", _Q, _S), ("or", _Q, _S)), (("imp", _T, _T),)),
    ((("and", _Q, ("or", _Q, _S)),) * 2, (("or", _S, _Q),)),
    ((_S, ("or", _S, _T), ("or", _S, _T)), (("or", _T, _S),)),
    ((_Q, ("or", _Q, BOT), ("or", _Q, BOT), ("or", _S, _R)), (("and", TOP, _Q),)),
)
#: corpus entry whose classical proof, with its succedent contracted at the
#: root, comes back from contraction elimination with a node that closes
#: only under strengthened axioms
ELIM_FAULT_ENTRY = "aug-exists-self"


def _search(call, rel: str, target, limits: SearchLimits):
    """One search under a relation, restart included, through ``call``."""
    if rel == "restart":
        return call("search.restart", prove_restart, target, limits)
    return call(f"search.{rel}", prove, target, rel, limits)


def stream_draw(rng: random.Random, k: int) -> tuple[str, tuple, tuple]:
    """The k-th draw of an in-fragment stream: its fragment, antecedent and
    succedent.  Fragments take turns, and within a fragment so do the
    clause count and the goal and clause sizes (1-3 each; for Horn, 1-3
    facts and 0-2 rules); the formulas themselves are seeded.  Cost grows
    steeply with size, so cycling the sizes rather than drawing them keeps
    the seed from moving a run's cost and latency quantiles."""
    n = len(STREAM_FRAGMENTS)
    frag = STREAM_FRAGMENTS[k % n]
    j = k // n
    if frag == "horn":
        return (frag, *random_horn_sequent(rng, 1 + j % 3, (j // 3) % 3))
    return (frag, *random_fragment_sequent(rng, frag, 1 + j % 3, 1 + (j // 3) % 3, 1 + (j // 9) % 3))


def warm_rng(workload: str, rep: int) -> random.Random:
    """The warm-up draw of a set-up repetition.  It does not depend on the
    seed, so every run pays the same warm-up, and it never repeats the timed
    inputs, whose generators are salted differently."""
    return random.Random(repr((workload, "warm-up", rep)))


def corpus_text() -> str:
    return resources.files(seqcalc).joinpath("data/paper.corpus").read_text()


@dataclass
class Op:
    """One operation: ``run`` makes the timed calls, ``check`` returns a
    problem description or None.  ``label`` names the input in reports."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False


@dataclass
class Tally:
    """Counts the checks gather, outside the timed region."""

    decided: int = 0
    proof_json_bytes: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _replay(out: Proved, conclusion, expected: ProofClass) -> str | None:
    if out.proof_class != expected:
        return f"proof class {out.proof_class}, expected {expected}"
    if out.proof.conclusion != conclusion:
        return f"proof ends in {out.proof.conclusion}, expected {conclusion}"
    report = check_proof(out.proof, out.proof_class)
    return None if report else f"proof does not replay under {expected}: {report.message}"


class Workload:
    name = ""

    def __init__(self, seed: int, rounds: int, tracer) -> None:
        self.seed = seed
        self.rounds = rounds
        self.call = tracer.call
        self.tally = Tally()
        self.ops: list[Op] = []
        self.warm: list[Op] = []
        self.g4ip = G4ip()

    def rng(self, *salt) -> random.Random:
        return random.Random(repr((self.name, self.seed) + salt))

    def setup(self, rep: int) -> None:
        """Build the timed operations and warm up on a draw of their own."""
        raise NotImplementedError

    def _count(self, rel: str, out) -> None:
        self.tally.add(f"search.{rel}.calls")
        if isinstance(out, (Proved, Refuted)):
            self.tally.decided += 1
            self.tally.add(f"search.{rel}.decided")

    def _searched(self, rel: str, out, conclusion, goal_class: ProofClass | None = None) -> str | None:
        """Bookkeeping and replay common to every search result."""
        self._count(rel, out)
        if isinstance(out, Exception):
            return f"{rel} raised {out!r}"
        if isinstance(out, Proved):
            return _replay(out, conclusion, goal_class or ProofClass(_CLASS[rel]))
        return None

    def _add_bytes(self, out: Proved) -> None:
        """Count a proof towards proof_json_bytes.  The search workloads
        count only proofs of inputs every correct run proves, so the metric
        does not grow with the number of proofs found."""
        self.tally.proof_json_bytes += len(dump_proof(out.proof, out.proof_class).encode())


# ---------------------------------------------------------------------------
# prop-decide


class PropDecide(Workload):
    """Quantifier-free sequents, given as text, parsed and decided under c,
    i and o.  One operation is one sequent."""

    name = "prop-decide"
    #: reference busy seconds of one round; a run makes seconds / ROUND_SECONDS rounds
    ROUND_SECONDS = 1.0
    PER_ROUND = 500
    REPEAT_SHARE = 0.4

    def setup(self, rep: int) -> None:
        self.ops = []
        for r in range(self.rounds):
            rng = self.rng("round", r)
            for _ in range(self.PER_ROUND):
                ante, succ = random_prop_sequent(rng, self.REPEAT_SHARE)
                self.ops.append(self._op(ante, succ))
            for ante, succ in LOOPCHECK_FAULTS:
                self.ops.append(self._op(ante, succ, known_fault=True))
        rng = warm_rng(self.name, rep)
        self.warm = [self._op(*random_prop_sequent(rng, self.REPEAT_SHARE)) for _ in range(self.PER_ROUND // 5)]

    def _run(self, text: str):
        call = self.call
        s = call("parser", parse_sequent, text)
        return (
            s,
            call("search.c", prove, s, "c", PROP_LIMITS),
            call("search.i", prove, s, "i", PROP_LIMITS),
            call("search.o", prove, s, "o", PROP_LIMITS),
        )

    def _op(self, ante: tuple, succ: tuple, known_fault: bool = False) -> Op:
        text = show_sequent(ante, succ)
        return Op(text, lambda: self._run(text), lambda res: self._check(res, text, ante, succ), known_fault)

    def _check(self, res, text: str, ante: tuple, succ: tuple) -> str | None:
        if isinstance(res, Exception):
            return f"raised {res!r}"
        s, oc, oi, oo = res
        self.tally.add("parser.chars", len(text))
        problems = [
            self._searched("c", oc, s),
            self._searched("i", oi, s),
            self._searched("o", oo, s),
        ]
        c_valid = classically_valid(ante, succ)
        i_valid = self.g4ip.valid(ante, succ[0])
        want_c = Proved if c_valid else Refuted
        want_i = Proved if i_valid else Refuted
        if not isinstance(oc, want_c):
            problems.append(f"c gave {type(oc).__name__}, truth tables say {want_c.__name__}")
        if c_valid and isinstance(oc, Proved):
            self._add_bytes(oc)
        if not isinstance(oi, want_i):
            problems.append(f"i gave {type(oi).__name__}, G4ip says {want_i.__name__}")
        if isinstance(oo, Proved) and not i_valid:
            problems.append("o proved a G4ip-invalid sequent")
        if isinstance(oo, Refuted):
            problems.append("o refuted, but goal-directed search never refutes")
        return "; ".join(p for p in problems if p) or None


# ---------------------------------------------------------------------------
# fo-reduction


class FoReduction(Workload):
    """The paper's reductions on first-order input: the golden corpus under
    c, i, o, restart and augment-o, then a seeded stream of in-fragment
    sequents under c and the fragment's guaranteed relation.  One operation
    is one search call."""

    name = "fo-reduction"
    ROUND_SECONDS = 12.0
    STREAM_PER_ROUND = 2000

    def setup(self, rep: int) -> None:
        text = corpus_text()
        entries = self.call("parser", parse_corpus, text)
        self.tally.add("parser.chars", len(text))
        self.ops = []
        for r in range(self.rounds):
            for e in entries:
                self.ops.extend(self._corpus_ops(e))
            self.ops.extend(self._stream_ops(self.rng("round", r), self.STREAM_PER_ROUND))
        self.warm = self._stream_ops(warm_rng(self.name, rep), self.STREAM_PER_ROUND // 20)

    def _corpus_ops(self, e) -> list[Op]:
        call, s = self.call, e.sequent
        ops = []
        for rel in ("c", "i", "o"):
            ops.append(
                Op(
                    f"{e.name} under {rel}",
                    lambda rel=rel: call(f"search.{rel}", prove, s, rel, CORPUS_LIMITS),
                    lambda out, rel=rel: self._golden(e, rel, out),
                )
            )
        ops.append(
            Op(
                f"{e.name} under restart",
                lambda: call("search.restart", prove_restart, s, CORPUS_LIMITS),
                lambda out: self._c_only(e, "restart", out, s),
            )
        )
        ops.append(
            Op(
                f"{e.name} under augment-o",
                lambda: self._augment_o(s),
                lambda res: self._c_only(e, "augment-o", res, None),
            )
        )
        return ops

    def _augment_o(self, s):
        a = self.call("transform.augment", augment, s)
        return a, self.call("search.augment-o", prove, a, "o", CORPUS_LIMITS)

    def _golden(self, e, rel: str, out) -> str | None:
        problem = self._searched(rel, out, e.sequent)
        if problem:
            return problem
        if e.expected(rel) != isinstance(out, Proved):
            return f"{rel} gave {type(out).__name__}, the corpus says {'yes' if e.expected(rel) else 'no'}"
        if isinstance(out, Proved):
            self._add_bytes(out)
        return None

    def _c_only(self, e, rel: str, res, s) -> str | None:
        if isinstance(res, Exception):
            return f"{rel} raised {res!r}"
        if rel == "augment-o":
            s, out = res
        else:
            out = res
        goal_class = self._class(rel, s)
        problem = self._searched(rel, out, s, goal_class)
        if problem:
            return problem
        if isinstance(out, Proved) and not e.classical:
            return f"{rel} proved a sequent the corpus marks C=no"
        if isinstance(out, Refuted):
            return f"{rel} refuted, but goal-directed search never refutes"
        return None

    def _stream_ops(self, rng: random.Random, n: int) -> list[Op]:
        ops = []
        for k in range(n):
            frag, ante, succ = stream_draw(rng, k)
            text = show_sequent(ante, succ)
            s = self.call("parser", parse_sequent, text)
            self.tally.add("parser.chars", len(text))
            member = self.call("fragments", fragment_guarantee, s, "lp-int" if frag == "horn" else frag)
            ops.extend(self._pair(frag, ante, succ, text, s, member))
        return ops

    def _pair(self, frag: str, ante: tuple, succ: tuple, text: str, s, member: bool) -> list[Op]:
        """The draw under c, then under the fragment's guaranteed relation.
        Quantifier-free draws are also held against the propositional
        oracles."""
        rel = GUARANTEED[frag]
        qf = all(map(quantifier_free, ante + succ))
        verdict: dict[str, object] = {}

        def check_c(out) -> str | None:
            verdict["c"] = out
            if not member:
                return f"the generator's {frag} sequent is outside the fragment by fragment_guarantee"
            problem = self._searched("c", out, s)
            if problem or not qf or not isinstance(out, (Proved, Refuted)):
                return problem
            if isinstance(out, Proved) != classically_valid(ante, succ):
                return f"c gave {type(out).__name__}, truth tables disagree"
            return None

        def run_g():
            target = self.call("transform.augment", augment, s) if rel == "restart" else s
            return target, _search(self.call, rel, target, STREAM_LIMITS)

        def check_g(res) -> str | None:
            if isinstance(res, Exception):
                return f"{rel} raised {res!r}"
            target, out = res
            problem = self._searched(rel, out, target, self._class(rel, target))
            if problem:
                return problem
            c_out = verdict.get("c")
            if isinstance(out, Proved) and isinstance(c_out, Refuted):
                return f"{rel} proved it but c refuted it"
            if qf:
                problem = self._g_oracle(rel, out, ante, succ)
                if problem:
                    return problem
            return self._guarantee(frag, rel, target, ante, succ, qf, c_out, out)

        return [
            Op(f"{text} under c", lambda: self.call("search.c", prove, s, "c", STREAM_LIMITS), check_c),
            Op(f"{text} under {rel}", run_g, check_g),
        ]

    @staticmethod
    def _class(rel: str, target) -> ProofClass | None:
        return ProofClass("og", target.succ[0]) if rel == "restart" else None

    def _g_oracle(self, rel: str, out, ante: tuple, succ: tuple) -> str | None:
        """A quantifier-free draw's guaranteed-relation outcome against the
        oracles: i decides G4ip validity, o proves only G4ip-valid sequents,
        restart only classically valid ones."""
        if not isinstance(out, (Proved, Refuted)):
            return None
        if rel == "restart":
            valid, oracle = classically_valid(ante, succ), "truth tables"
        else:
            valid, oracle = self.g4ip.valid(ante, succ[0]), "G4ip"
        if isinstance(out, Proved) and not valid or rel == "i" and isinstance(out, Refuted) and valid:
            return f"{rel} gave {type(out).__name__}, {oracle} disagree"
        return None

    def _guarantee(self, frag: str, rel: str, target, ante: tuple, succ: tuple, qf: bool, c_out, out) -> str | None:
        """The paper's reduction on the draw: a classical proof (for LP_INT,
        an intuitionistic one) implies a proof under the guaranteed
        relation.  Where the timed search ended without one, the relation
        searches again, untimed, under CHECK_LIMITS, and must prove it."""
        if not isinstance(c_out, Proved) or isinstance(out, Proved):
            return None
        if frag in NEEDS_INTUITIONISTIC:
            if qf:
                holds = self.g4ip.valid(ante, succ[0])
            else:
                holds = isinstance(prove(target, "i", PREMISE_LIMITS), Proved)
            if not holds:
                return None
        for limits in CHECK_LIMITS:
            again = _search(NoTracer.call, rel, target, limits)
            if isinstance(again, Proved):
                return _replay(again, target, self._class(rel, target) or ProofClass(_CLASS[rel]))
        premise = "an intuitionistic" if frag in NEEDS_INTUITIONISTIC else "a classical"
        return f"{premise} proof exists, but {rel} gave {type(again).__name__} under every one of CHECK_LIMITS"


# ---------------------------------------------------------------------------
# proof-pipeline


def _decorate(rng: random.Random, proof: Proof, n: int, succ_ok: bool) -> Proof:
    """Insert n contraction nodes at seeded positions: each duplicates one
    formula of a node's conclusion into its subproof by weakening and
    contracts it again, so the end sequent is unchanged."""
    for _ in range(n):
        paths = []
        stack = [(proof, ())]
        while stack:
            node, path = stack.pop()
            paths.append(path)
            stack.extend((q, path + (i,)) for i, q in enumerate(node.premises))
        path = rng.choice(sorted(paths))
        target = proof
        for i in path:
            target = target.premises[i]
        s = target.conclusion
        sides = [("ante", i) for i in range(len(s.ante))]
        if succ_ok:
            sides += [("succ", i) for i in range(len(s.succ))]
        if not sides:
            continue
        side, i = rng.choice(sides)
        proof = _replace_at(proof, path, _contracted(target, side, i))
    return proof


def _contracted(target: Proof, side: str, i: int) -> Proof:
    s = target.conclusion
    if side == "ante":
        return Proof(RuleId.CONTR_L, s, (weaken(target, extra_ante=(s.ante[i],)),), ("ante", i))
    return Proof(RuleId.CONTR_R, s, (weaken(target, extra_succ=(s.succ[i],)),), ("succ", i))


def _replace_at(p: Proof, path: tuple, new: Proof) -> Proof:
    if not path:
        return new
    prems = list(p.premises)
    prems[path[0]] = _replace_at(prems[path[0]], path[1:], new)
    return Proof(p.rule, p.conclusion, tuple(prems), p.principal, p.witness, p.eigen)


def _extraction_path(p: Proof) -> bool:
    """Whether an extraction path exists for a plain classical proof, by its
    rule-family profile: the some-goal path needs no implication-right and
    no disjunction-left; the starred round trip needs no implication-left,
    disjunction-right or exists-right and a single succedent formula."""
    fams = rule_profile(p)
    if not fams & {"imp-r", "or-l"}:
        return True
    return not fams & {"imp-l", "or-r", "exists-r"} and len(p.conclusion.succ) == 1


@dataclass
class _Item:
    proof: Proof
    cls: ProofClass
    decorated: Proof | None


class ProofPipeline(Workload):
    """Proofs of every class, made in set-up from seeded searches, each
    through check, dump, load, expand, extract (classical proofs) and, on a
    contraction-decorated copy, contraction elimination.  One operation is
    one proof."""

    name = "proof-pipeline"
    ROUND_SECONDS = 12.0
    #: set-up draws by input source, and how many of them (a prefix of the
    #: seeded list) each relation searches, whatever the outcomes: decided
    #: counts the same calls in every run, so more proofs read as more
    DRAWS = {
        "prop": {"c": 1500, "i": 1500, "o": 1000, "restart": 750},
        "stream": {"c": 300, "i": 300, "o": 300, "restart": 300},
    }
    #: proof sizes (nodes, inclusive) of the quota bands, by input source
    BANDS = {"prop": ((1, 3), (4, 10), (11, 30), (31, 120)), "stream": ((1, 2), (3, 5), (6, 15), (16, 120))}
    #: proofs per round by input source, proof class and size band, close
    #: to the shares the searches yield, so every round has the same number
    #: of operations and nearly the same spread of proof sizes for every seed
    QUOTAS = {
        ("prop", "cstar"): (215, 200, 230, 55),
        ("prop", "istar"): (270, 276, 144, 10),
        ("prop", "o"): (208, 156, 103, 13),
        ("prop", "og"): (132, 113, 66, 9),
        ("stream", "cstar"): (43, 41, 38, 8),
        ("stream", "istar"): (37, 35, 16, 2),
        ("stream", "o"): (30, 15, 8, 2),
        ("stream", "og"): (29, 14, 9, 3),
    }
    #: the warm-up searches and takes this fraction of the above
    WARM_SHARE = 20
    _RELATIONS = (("c", "cstar"), ("i", "istar"), ("o", "o"), ("restart", "og"))

    def setup(self, rep: int) -> None:
        entry = next(e for e in parse_corpus(corpus_text()) if e.name == ELIM_FAULT_ENTRY)
        fault = self._op(self._fault_item(entry.sequent), known_fault=True)
        round_ops = [self._op(item) for item in self._items(self.rng("proofs"), 1)]
        self.ops = (round_ops + [fault]) * self.rounds
        self.warm = [self._op(item) for item in self._items(warm_rng(self.name, rep), self.WARM_SHARE)]

    def _fault_item(self, s) -> _Item:
        out = self.call("search.c", prove, s, "c", CORPUS_LIMITS)
        if not isinstance(out, Proved):
            raise RuntimeError(f"{ELIM_FAULT_ENTRY} has no classical proof within the corpus limits")
        root_forall = next(i for i, f in enumerate(s.succ) if isinstance(f, Forall))
        return _Item(out.proof, out.proof_class, _contracted(out.proof, "succ", root_forall))

    def _draw(self, rng: random.Random, source: str, k: int) -> str:
        if source == "prop":
            return show_sequent(*random_prop_sequent(rng, PropDecide.REPEAT_SHARE))
        return show_sequent(*stream_draw(rng, k)[1:])

    def _band(self, source: str, nodes: int) -> int | None:
        for b, (lo, hi) in enumerate(self.BANDS[source]):
            if lo <= nodes <= hi:
                return b
        return None

    def _items(self, rng: random.Random, share: int) -> list[_Item]:
        """Search the seeded draws under c, i, o and restart-on-augment
        (1/share of DRAWS), then fill 1/share of the quotas from the proofs
        found.  Only the timed inputs' searches count towards decided."""
        call = self.call
        found: dict[tuple, list[Proved]] = {key: [] for key in self.QUOTAS}
        for source, counts in self.DRAWS.items():
            counts = {rel: -(-n // share) for rel, n in counts.items()}
            for k in range(max(counts.values())):
                text = self._draw(rng, source, k)
                s = call("parser", parse_sequent, text)
                self.tally.add("parser.chars", len(text))
                for rel, kind in self._RELATIONS:
                    if k >= counts[rel]:
                        continue
                    target = call("transform.augment", augment, s) if rel == "restart" else s
                    out = _search(call, rel, target, STREAM_LIMITS)
                    if share == 1:
                        self._count(rel, out)
                    if isinstance(out, Proved):
                        found[(source, kind)].append(out)
        items = []
        for (source, kind), quota in self.QUOTAS.items():
            quota = tuple(-(-n // share) for n in quota)
            for out in self._fill(source, kind, found[(source, kind)], quota, share == 1):
                decorated = None
                if kind in ("cstar", "istar"):
                    decorated = _decorate(rng, out.proof, rng.randint(1, 3), kind == "cstar")
                items.append(_Item(out.proof, out.proof_class, decorated))
        return items

    def _fill(self, source: str, kind: str, proofs: list[Proved], quota: tuple, report: bool) -> list[Proved]:
        """The first quota[b] proofs of each size band b, in draw order.  A
        band short of proofs takes spare ones from the nearest band, and a
        class short of proofs altogether repeats its own, so every run has
        the same operations whatever sizes the searches yield; with
        ``report``, either is noted on standard error."""
        by_band: list[list[Proved]] = [[] for _ in quota]
        for out in proofs:
            b = self._band(source, proof_size(out.proof))
            if b is not None:
                by_band[b].append(out)
        taken = [band[:n] for band, n in zip(by_band, quota)]
        spare = [band[n:] for band, n in zip(by_band, quota)]
        for b, n in enumerate(quota):
            for near in sorted(range(len(quota)), key=lambda j: abs(j - b)):
                while len(taken[b]) < n and spare[near]:
                    taken[b].append(spare[near].pop(0))
        chosen = [out for band in taken for out in band]
        if not chosen:
            raise RuntimeError(f"no {kind} proofs within the size bands from {source} draws")
        if report and any(len(band) < n for band, n in zip(by_band, quota)):
            print(f"note: {source} {kind} proofs per size band {[len(b) for b in by_band]}, quotas {list(quota)}",
                  file=sys.stderr)
        short = sum(quota) - len(chosen)
        return chosen + [chosen[j % len(chosen)] for j in range(short)]

    def _op(self, item: _Item, known_fault: bool = False) -> Op:
        label = f"{item.cls} proof of {item.proof.conclusion}"
        return Op(label, lambda: self._run(item), lambda res: self._check(item, res), known_fault)

    def _run(self, item: _Item):
        call = self.call
        p, cls = item.proof, item.cls
        report = call("calculus.check", check_proof, p, cls)
        text = call("calculus.dump", dump_proof, p, cls)
        loaded = call("calculus.load", load_proof, text)
        expanded = call("transform.expand", expand_starred, p)
        extracted = None
        if cls.kind == "cstar":
            try:
                extracted = call("transform.extract", extract_intuitionistic, expanded)
            except TransformError as exc:
                extracted = exc
        eliminated = None
        if item.decorated is not None:
            eliminated = call("transform.elim", eliminate_contractions, item.decorated)
        return report, text, loaded, expanded, extracted, eliminated

    def _check(self, item: _Item, res) -> str | None:
        if isinstance(res, Exception):
            return f"raised {res!r}"
        report, text, loaded, expanded, extracted, eliminated = res
        p, cls = item.proof, item.cls
        nodes = proof_size(p)
        nbytes = len(text.encode())
        t = self.tally
        t.proof_json_bytes += nbytes
        t.add("calculus.nodes", nodes)
        t.add("calculus.bytes", nbytes)
        if not report:
            return f"search output does not replay under {cls}: {report.message}"
        if loaded != (p, cls):
            return "the JSON round trip changed the proof or its class"
        plain = ProofClass(_EXPANDED[cls.kind], cls.goal)
        if expanded.conclusion != p.conclusion:
            return "expansion changed the end sequent"
        report = check_proof(expanded, plain)
        if not report:
            return f"expanded proof does not replay under {plain}: {report.message}"
        if cls.kind == "cstar":
            t.add("transform.extract.calls")
            admitted = _extraction_path(expanded)
            if isinstance(extracted, TransformError):
                if admitted:
                    return f"extraction refused a proof whose rule profile admits a path: {extracted}"
            else:
                t.add("transform.extract.applied")
                if not admitted:
                    return "extraction succeeded on a proof whose rule profile admits no path"
                end = extracted.conclusion
                if end.ante != p.conclusion.ante or len(end.succ) != 1 or end.succ[0] not in p.conclusion.succ:
                    return f"extraction ends in {end}, not in one goal of {p.conclusion}"
                report = check_proof(extracted, ProofClass("i"))
                if not report:
                    return f"extracted proof does not replay under i: {report.message}"
        if eliminated is not None:
            if eliminated.conclusion != item.decorated.conclusion:
                return "contraction elimination changed the end sequent"
            if rule_usage(eliminated) & {RuleId.CONTR_L, RuleId.CONTR_R}:
                return "contraction elimination left a contraction"
            report = check_proof(eliminated, cls)
            if not report:
                return f"contraction-free proof does not replay under {cls}: {report.message}"
        return None


WORKLOADS = {w.name: w for w in (PropDecide, FoReduction, ProofPipeline)}
