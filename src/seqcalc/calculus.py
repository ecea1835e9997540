"""Proof objects and proof checking for the sequent calculi.

A proof is a tree of rule applications.  Each node records its conclusion
sequent, the rule used, which formula was principal (side and index into the
canonical sequent), plus a witness term or eigenvariable name where the rule
needs one.  Two explicit-stack loops stand in for recursion:
`fold_proof`, the one post-order walk over a proof, whose callbacks are
`proof_height`, `proof_to_json`, the plain transforms and the classical
prover's grounding; and `drive`, which runs the ground search and the
transforms that stop at a node or rebuild above it.  `Proof` equality walks
an explicit stack too, and a proof hashes by its rule and conclusion.

A `Proof` node is a frozen, slotted dataclass: it has no `__dict__`, and
its constructor sets the six slots through their descriptors, as
`Sequent`'s does.  The principals at positions `("ante"|"succ", 0..63)`
are 128 shared pairs: the constructor swaps an equal pair for the shared
one and keeps any other principal as given, so the many nodes at one
position hold one tuple between them.

`check_proof` replays the tree bottom-up against one of the calculus
classes:

    c           classical multiset calculus with explicit contraction
    i           the same rules restricted to singleton succedents
    o           class i plus goal-directedness: a compound succedent formula
                must be introduced by its right rule
    cstar       contraction-free classical calculus (starred left/right rules
                keep or re-add their principal as needed)
    istar       contraction-free singleton-succedent calculus
    ig / og     class i / o with the disjunction-left rule replaced by a
                restart-aware variant and an explicit restart rule targeting
                a fixed goal formula

`premises`, read from one rule table, is the one definition of each rule's
premises: the checker, the provers and the proof transforms all call it.
Its builders edit the conclusion's sorted sides instead of sorting, so the
sides must be sorted, as every Sequent's are.  `INVERTIBLE` names the
invertible rule of each connective on each side.

`dump_proof` writes a proof as one flat JSON document, `{"format": 3,
"class", "goal"?, "ante", "succ", "nodes"}`: the root's member texts, then
the nodes in post-order, so every node comes after its premises and the
root is last.  Each non-root node is the premise of exactly one later
node, so the document is a tree and not a shared graph.  A node names its
`rule`, `principal`, `witness`, `eigen` and `premises` (indices into
`nodes`), null and empty fields left out; an imp-l node also names its
`split`, even when empty: the indices of its conclusion's succedent
members that go to its first premise.

`_premises_of` derives a node's premises from its conclusion, rule and
fields, through `premises` for every rule but the axiom, restart and
imp-l.  The checker compares each node's premises with them, reading
imp-l's split off the first premise, so a wrong premise count fails too.
`load_proof` rebuilds every conclusion below the root with them, from the
root down, so a derived member takes the binder names of the root's
printed text; alpha-variants compare equal, so every proof `check_proof`
accepts loads back ==.  The loader rejects a document that breaks the
layout or holds a node its rule cannot rebuild: a bad principal; a
missing witness, eigenvariable or split; an eigenvariable that is not
fresh; a restart rule in a class without a goal; a premise count other
than the rule's.

Formulas are interned, so the same objects come back document after
document.  Two process-wide memos convert each distinct root member or
goal once, not once per document: `_TEXTS` holds the printed text of each
live formula `proof_to_json` listed, keyed by the formula's id (never by
==, which would give an alpha-variant another variant's binder names); an
entry holds its formula weakly and goes when the formula dies, so the memo
keeps no formula alive.  `_PARSED` holds the formula each member or goal
text `proof_from_json` read, keyed by the text; a text that fails to
parse is never stored.  Both are bounded as the searches' memos are, by
`syntax._stored`: each is emptied when it reaches `syntax._MEMO_CAP`
entries.  Threads may share them: a lookup is one dict read, and every
store holds `_MEMO_LOCK`, so no memo grows past the cap.  `parse_formula`
and `format_formula` themselves stay uncached.
"""

from __future__ import annotations

import enum
import json
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Iterator

from .parser import parse_formula, parse_term
from .syntax import (
    BOT,
    And,
    Atom,
    Bot,
    Const,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Sequent,
    Term,
    Top,
    _stored,
    format_formula,
    format_term,
    free_symbols,
    instantiate,
    multiset_minus,
)


class RuleId(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; Enum's hash is a Python call

    AXIOM = "axiom"
    CONTR_L = "contr-l"
    CONTR_R = "contr-r"
    BOT_R = "bot-r"
    AND_L_LEFT = "and-l-left"
    AND_L_RIGHT = "and-l-right"
    OR_L = "or-l"
    AND_R = "and-r"
    OR_R_LEFT = "or-r-left"
    OR_R_RIGHT = "or-r-right"
    IMP_L = "imp-l"
    IMP_R = "imp-r"
    FORALL_L = "forall-l"
    EXISTS_R = "exists-r"
    EXISTS_L = "exists-l"
    FORALL_R = "forall-r"
    AND_L_STAR = "and-l*"
    OR_R_STAR = "or-r*"
    IMP_L_STAR = "imp-l*"
    FORALL_L_STAR = "forall-l*"
    EXISTS_R_STAR = "exists-r*"
    IMP_L_STAR_INT = "imp-l*-int"
    OR_L_RESTART = "or-l-restart"
    RESTART = "restart"


_BY_VALUE = {r.value: r for r in RuleId}


def rule_from_string(s: str) -> RuleId:
    try:
        return _BY_VALUE[s]
    except KeyError:
        raise ValueError(f"unknown rule name {s!r}") from None


#: family name used for rule-usage profiles: the two conjunction-left
#: projections count as one rule, likewise disjunction-right injections.
_FAMILY = {
    RuleId.AND_L_LEFT: "and-l",
    RuleId.AND_L_RIGHT: "and-l",
    RuleId.AND_L_STAR: "and-l",
    RuleId.OR_R_LEFT: "or-r",
    RuleId.OR_R_RIGHT: "or-r",
    RuleId.OR_R_STAR: "or-r",
    RuleId.FORALL_L_STAR: "forall-l",
    RuleId.EXISTS_R_STAR: "exists-r",
    RuleId.IMP_L_STAR: "imp-l",
    RuleId.IMP_L_STAR_INT: "imp-l",
}


def rule_family(rule: RuleId) -> str:
    return _FAMILY.get(rule, rule.value)


#: the shared principal of each position ("ante"|"succ", 0..63), keyed by
#: itself: a node built with an equal pair holds this one instead
_PAIRS = {pair: pair for pair in ((side, i) for side in ("ante", "succ") for i in range(64))}


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Proof:
    rule: RuleId
    conclusion: Sequent
    premises: tuple["Proof", ...] = ()
    principal: tuple[str, int] | None = None  # ("ante"|"succ", index)
    witness: Term | None = None
    eigen: str | None = None

    def __init__(self, rule, conclusion, premises=(), principal=None, witness=None, eigen=None) -> None:
        _set_rule(self, rule)
        _set_conclusion(self, conclusion)
        _set_premises(self, premises)
        _set_principal(self, _PAIRS.get(principal, principal))
        _set_witness(self, witness)
        _set_eigen(self, eigen)

    def __reduce__(self):
        return Proof, (self.rule, self.conclusion, self.premises, self.principal, self.witness, self.eigen)

    def __eq__(self, other):
        """Node by node on an explicit stack, a pair of one node at once."""
        if not isinstance(other, Proof):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.rule, a.conclusion, a.principal, a.witness, a.eigen) != (
                b.rule, b.conclusion, b.principal, b.witness, b.eigen
            ) or len(a.premises) != len(b.premises):
                return False
            stack += zip(a.premises, b.premises)
        return True

    def __hash__(self) -> int:
        return hash((self.rule, self.conclusion))


# the constructor sets the frozen slots through their descriptors
_set_rule = Proof.rule.__set__
_set_conclusion = Proof.conclusion.__set__
_set_premises = Proof.premises.__set__
_set_principal = Proof.principal.__set__
_set_witness = Proof.witness.__set__
_set_eigen = Proof.eigen.__set__


def fold_proof(p: Proof, leave: Callable[[Proof, tuple], Any]) -> Any:
    """leave(node, results) for every node of p in post-order, results being
    what leave gave the node's premises, left to right; the root's result.
    Walks an explicit stack, so proof height costs no recursion."""
    done: list = []
    stack: list = [(p, False)]
    while stack:
        node, ready = stack.pop()
        if ready or not node.premises:
            n = len(done) - len(node.premises)
            results = tuple(done[n:])
            del done[n:]
            done.append(leave(node, results))
        else:
            stack.append((node, True))
            stack += [(q, False) for q in reversed(node.premises)]
    return done[0]


def drive(enter: Callable[..., Any], *args) -> Any:
    """enter(*args), run as a recursion on an explicit stack.  enter returns
    a result, or a visit: a generator that yields the arguments of each
    sub-call of enter, is sent its result or raised its exception at that
    yield, and returns its own.  The stack holds the suspended visits of the
    current path, so its length costs no interpreter recursion."""
    stack: list = []
    result, failure = enter(*args), None
    while True:
        if type(result) is GeneratorType:
            stack.append(result)
            result = None
        elif not stack:
            return result
        try:
            call = stack[-1].send(result) if failure is None else stack[-1].throw(failure)
            result, failure = enter(*call), None
        except StopIteration as done:
            stack.pop()
            result, failure = done.value, None
        except Exception as exc:
            if stack[-1].gi_frame is None:  # the visit itself raised
                stack.pop()
                if not stack:
                    raise
            result, failure = None, exc


def proof_height(p: Proof) -> int:
    """Nodes on the longest root-to-leaf path: a lone axiom has height 1."""
    return fold_proof(p, lambda node, heights: 1 + max(heights, default=0))


def proof_nodes(p: Proof) -> Iterator[Proof]:
    """Every node of p in pre-order: each node before its premises, the
    premises left to right.  Uses an explicit stack, so proof height costs
    no recursion."""
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.premises))


def proof_size(p: Proof) -> int:
    return sum(1 for _ in proof_nodes(p))


def rule_usage(p: Proof) -> frozenset[RuleId]:
    return frozenset(node.rule for node in proof_nodes(p))


def rule_profile(p: Proof) -> frozenset[str]:
    """Rule families used in p (axiom excluded), for reduction-condition checks."""
    return frozenset(rule_family(r) for r in rule_usage(p) if r is not RuleId.AXIOM)


# ---------------------------------------------------------------------------
# proof classes


_KINDS = ("c", "i", "o", "cstar", "istar", "ig", "og")

_PLAIN_RULES = frozenset(
    {
        RuleId.AXIOM,
        RuleId.CONTR_L,
        RuleId.CONTR_R,
        RuleId.BOT_R,
        RuleId.AND_L_LEFT,
        RuleId.AND_L_RIGHT,
        RuleId.OR_L,
        RuleId.AND_R,
        RuleId.OR_R_LEFT,
        RuleId.OR_R_RIGHT,
        RuleId.IMP_L,
        RuleId.IMP_R,
        RuleId.FORALL_L,
        RuleId.EXISTS_R,
        RuleId.EXISTS_L,
        RuleId.FORALL_R,
    }
)

_CSTAR_RULES = frozenset(
    {
        RuleId.AXIOM,
        RuleId.BOT_R,
        RuleId.AND_L_STAR,
        RuleId.OR_L,
        RuleId.AND_R,
        RuleId.OR_R_STAR,
        RuleId.IMP_L_STAR,
        RuleId.IMP_R,
        RuleId.FORALL_L_STAR,
        RuleId.EXISTS_R_STAR,
        RuleId.EXISTS_L,
        RuleId.FORALL_R,
    }
)

_ISTAR_RULES = frozenset(
    {
        RuleId.AXIOM,
        RuleId.BOT_R,
        RuleId.AND_L_STAR,
        RuleId.OR_L,
        RuleId.AND_R,
        RuleId.OR_R_LEFT,
        RuleId.OR_R_RIGHT,
        RuleId.IMP_R,
        RuleId.IMP_L_STAR_INT,
        RuleId.FORALL_L_STAR,
        RuleId.EXISTS_R,
        RuleId.EXISTS_L,
        RuleId.FORALL_R,
    }
)

_RULESETS: dict[str, frozenset[RuleId]] = {
    "c": _PLAIN_RULES,
    "i": _PLAIN_RULES,
    "o": _PLAIN_RULES,
    "cstar": _CSTAR_RULES,
    "istar": _ISTAR_RULES,
    "ig": (_PLAIN_RULES - {RuleId.OR_L}) | {RuleId.OR_L_RESTART, RuleId.RESTART},
    "og": (_PLAIN_RULES - {RuleId.OR_L}) | {RuleId.OR_L_RESTART, RuleId.RESTART},
}

_SINGLETON_KINDS = {"i", "o", "istar", "ig", "og"}
_UNIFORM_KINDS = {"o", "og"}
_RESTART_KINDS = {"ig", "og"}


@dataclass(frozen=True, slots=True)
class ProofClass:
    """A calculus to check against; restart classes carry their goal formula."""

    kind: str
    goal: Formula | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown proof class {self.kind!r}")
        if self.kind in _RESTART_KINDS and self.goal is None:
            raise ValueError(f"proof class {self.kind!r} needs a goal formula")
        if self.kind not in _RESTART_KINDS and self.goal is not None:
            raise ValueError(f"proof class {self.kind!r} does not take a goal")

    def __str__(self) -> str:
        if self.goal is not None:
            return f"{self.kind}[{format_formula(self.goal)}]"
        return self.kind


CLASSICAL = ProofClass("c")
INTUITIONISTIC = ProofClass("i")
UNIFORM = ProofClass("o")
CLASSICAL_STAR = ProofClass("cstar")
INTUITIONISTIC_STAR = ProofClass("istar")


def restart_class(goal: Formula) -> ProofClass:
    """The class of restart goal-directed proofs with goal as restart goal."""
    return ProofClass("og", goal)


# ---------------------------------------------------------------------------
# checking


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    message: str = ""
    path: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def is_axiom(s: Sequent, strengthened: bool = False) -> bool:
    """Closure test: top on the right, or a shared antecedent/succedent formula.

    The standard form only accepts a shared atom or bottom; the strengthened
    form accepts any shared formula.
    """
    for f in s.succ:
        if isinstance(f, Top):
            return True
    # sort keys: equal exactly for equal formulas, and hashed in C
    succ_keys = {f._key for f in s.succ}
    for f in s.ante:
        if f._key in succ_keys and (strengthened or isinstance(f, (Atom, Bot))):
            return True
    return False


_CONNECTIVE_NAMES = {
    And: "a conjunction",
    Or: "a disjunction",
    Imp: "an implication",
    Forall: "a forall formula",
    Exists: "an exists formula",
}

#: the invertible rule of each connective, per side: the rules every
#: search applies eagerly and that height-preserving inversion undoes
INVERTIBLE: dict[str, dict[type, RuleId]] = {
    "ante": {And: RuleId.AND_L_STAR, Or: RuleId.OR_L, Imp: RuleId.IMP_L_STAR, Exists: RuleId.EXISTS_L},
    "succ": {And: RuleId.AND_R, Or: RuleId.OR_R_STAR, Imp: RuleId.IMP_R, Forall: RuleId.FORALL_R},
}


def _or_l_restart(s: Sequent, i: int, f, t, g) -> tuple[Sequent, ...]:
    return s.replace_ante(i, (f.left,)), Sequent._presorted(s.ante, (g,)).replace_ante(i, (f.right,))


#: Every rule with a principal formula: its side, the connective it must
#: have (None: any formula), and the builder of its premises from
#: (conclusion, principal index, principal, term, restart goal); imp-l,
#: whose succedent split is free, has none.
_RULES = {
    RuleId.CONTR_L: ("ante", None, lambda s, i, f, t, g: (s.plus(ante=(f,)),)),
    RuleId.CONTR_R: ("succ", None, lambda s, i, f, t, g: (s.plus(succ=(f,)),)),
    RuleId.BOT_R: ("succ", None, lambda s, i, f, t, g: (s.replace_succ(i, (BOT,)),)),
    RuleId.AND_L_LEFT: ("ante", And, lambda s, i, f, t, g: (s.replace_ante(i, (f.left,)),)),
    RuleId.AND_L_RIGHT: ("ante", And, lambda s, i, f, t, g: (s.replace_ante(i, (f.right,)),)),
    RuleId.AND_L_STAR: ("ante", And, lambda s, i, f, t, g: (s.replace_ante(i, (f.left, f.right)),)),
    RuleId.OR_L: (
        "ante",
        Or,
        lambda s, i, f, t, g: (s.replace_ante(i, (f.left,)), s.replace_ante(i, (f.right,))),
    ),
    RuleId.OR_L_RESTART: ("ante", Or, _or_l_restart),
    RuleId.IMP_L: ("ante", Imp, None),
    RuleId.IMP_L_STAR: (
        "ante",
        Imp,
        lambda s, i, f, t, g: (s.without_ante(i).plus(succ=(f.left,)), s.replace_ante(i, (f.right,))),
    ),
    RuleId.IMP_L_STAR_INT: (
        "ante",
        Imp,
        lambda s, i, f, t, g: (Sequent._presorted(s.ante, (f.left,)), s.replace_ante(i, (f.right,))),
    ),
    RuleId.FORALL_L: ("ante", Forall, lambda s, i, f, t, g: (s.replace_ante(i, (instantiate(f, t),)),)),
    RuleId.FORALL_L_STAR: ("ante", Forall, lambda s, i, f, t, g: (s.plus(ante=(instantiate(f, t),)),)),
    RuleId.EXISTS_L: ("ante", Exists, lambda s, i, f, t, g: (s.replace_ante(i, (instantiate(f, t),)),)),
    RuleId.AND_R: (
        "succ",
        And,
        lambda s, i, f, t, g: (s.replace_succ(i, (f.left,)), s.replace_succ(i, (f.right,))),
    ),
    RuleId.OR_R_LEFT: ("succ", Or, lambda s, i, f, t, g: (s.replace_succ(i, (f.left,)),)),
    RuleId.OR_R_RIGHT: ("succ", Or, lambda s, i, f, t, g: (s.replace_succ(i, (f.right,)),)),
    RuleId.OR_R_STAR: ("succ", Or, lambda s, i, f, t, g: (s.replace_succ(i, (f.left, f.right)),)),
    RuleId.IMP_R: ("succ", Imp, lambda s, i, f, t, g: (s.replace_succ(i, (f.right,)).plus(ante=(f.left,)),)),
    RuleId.EXISTS_R: ("succ", Exists, lambda s, i, f, t, g: (s.replace_succ(i, (instantiate(f, t),)),)),
    RuleId.EXISTS_R_STAR: ("succ", Exists, lambda s, i, f, t, g: (s.plus(succ=(instantiate(f, t),)),)),
    RuleId.FORALL_R: ("succ", Forall, lambda s, i, f, t, g: (s.replace_succ(i, (instantiate(f, t),)),)),
}


def premises(
    rule: RuleId,
    s: Sequent,
    index: int,
    f: Formula,
    term: Term | None = None,
    goal: Formula | None = None,
) -> tuple[Sequent, ...]:
    """The premise sequents `rule` derives `s` from, `f` being its principal
    at `index` on the rule's side; `term` is the witness of a quantifier
    rule or the eigenvariable of an eigen rule, `goal` the restart goal.
    This is the one definition of the rules' premises.  Its builders edit
    the sorted sides of `s` instead of sorting anew, so `s` must have sides
    in sorted order, as every Sequent does.  ValueError for the axiom,
    restart and multi-succedent imp-l rules (whose succedent split is
    free)."""
    try:
        build = _RULES[rule][2]
    except KeyError:
        raise ValueError(f"rule {rule.value} has no principal formula") from None
    if build is None:
        raise ValueError(f"rule {rule.value} leaves its succedent split free")
    return build(s, index, f, term, goal)


def bottom_closure(s: Sequent) -> Proof:
    """s closed by bot-r on its first succedent member over an axiom: s has bottom on the left."""
    (premise,) = premises(RuleId.BOT_R, s, 0, s.succ[0])
    return Proof(RuleId.BOT_R, s, (Proof(RuleId.AXIOM, premise),), ("succ", 0))


def _uniform_violation(node: Proof) -> str | None:
    goal = node.conclusion.succ[0]
    if isinstance(goal, (Atom, Top, Bot)):
        return None
    if _RULES.get(node.rule, ())[:2] != ("succ", type(goal)):
        return (
            f"compound goal {format_formula(goal)} must be introduced by its "
            f"right rule, not {node.rule.value}"
        )
    return None


def _expect_premises(node: Proof, *wanted: Sequent) -> str | None:
    got = tuple(q.conclusion for q in node.premises)
    if got == wanted:
        return None
    want_text = "; ".join(str(s) for s in wanted)
    got_text = "; ".join(str(s) for s in got)
    return f"{node.rule.value}: expected premises [{want_text}], found [{got_text}]"


def _premises_of(rule, s, principal, witness, eigen, goal, delta1, first=None) -> tuple[Sequent, ...] | str:
    """The premise sequents a `rule` node with these fields derives `s`
    from, or the checker's message for why it derives none.  `delta1` is
    the part of `s`'s succedent an imp-l node's first premise keeps; the
    checker gives `first`, that premise's succedent, to read it off."""
    if rule is RuleId.AXIOM:
        return ()
    if rule is RuleId.RESTART:
        return (Sequent._presorted(s.ante, (goal,)),)
    side, connective, build = _RULES[rule]
    if principal is None:
        return f"rule {rule.value} needs a principal formula"
    got_side, index = principal
    if got_side != side:
        return f"rule {rule.value} expects its principal on the {side} side"
    formulas = s.ante if side == "ante" else s.succ
    if not 0 <= index < len(formulas):
        return f"principal index {index} out of range"
    f = formulas[index]
    if connective is not None and not isinstance(f, connective):
        return f"principal of {rule.value} must be {_CONNECTIVE_NAMES[connective]}"
    if build is None:
        # imp-l: the second premise keeps the rest of the succedent
        if first is not None:
            delta1 = multiset_minus(first, (f.left,))
        theta = None if delta1 is None else multiset_minus(s.succ, delta1)
        if theta is None:
            return (
                "imp-l: the first premise's succedent must be the implication's "
                "antecedent plus part of the conclusion's succedent"
            )
        rest = s.ante[:index] + s.ante[index + 1 :]
        return Sequent(rest, delta1 + (f.left,)), Sequent(rest + (f.right,), theta)
    term = witness
    if (side, connective) in (("ante", Forall), ("succ", Exists)):
        if term is None:
            return f"rule {rule.value} needs a witness term"
    elif (side, connective) in (("ante", Exists), ("succ", Forall)):
        if not eigen:
            return f"rule {rule.value} needs an eigenvariable"
        if eigen in free_symbols(s):
            return f"eigenvariable {eigen!r} already occurs in the conclusion"
        if goal is not None and eigen in free_symbols(goal):
            return f"eigenvariable {eigen!r} occurs in the restart goal"
        term = Const(eigen)
    return build(s, index, f, term, goal)


def _check_node(node: Proof, cls: ProofClass, strengthened: bool) -> str | None:
    """Validate one rule application (premise sequents, not their subtrees).
    Members and witnesses are tested for metavariables by the flag each
    node carries, so no member is walked."""
    rule = node.rule
    s = node.conclusion

    for f in s.ante + s.succ:
        if f._mv:
            return "sequent contains unresolved metavariables"
    if node.witness is not None and node.witness._mv:
        return "witness term contains unresolved metavariables"

    if rule is RuleId.AXIOM:
        if not is_axiom(s, strengthened):
            return f"not an axiom: {s}"
        return _expect_premises(node) if node.premises else None

    first = node.premises[0].conclusion.succ if rule is RuleId.IMP_L and node.premises else None
    wanted = _premises_of(rule, s, node.principal, node.witness, node.eigen, cls.goal, None, first)
    return wanted if type(wanted) is str else _expect_premises(node, *wanted)


def check_proof(proof: Proof, cls: ProofClass, strengthened_axioms: bool = False) -> CheckReport:
    """Validate a proof tree against a calculus class.

    Returns a report whose truth value says whether the proof is valid; on
    failure the report carries the first violating node as a path of premise
    indices from the root.
    """
    allowed = _RULESETS[cls.kind]
    singleton = cls.kind in _SINGLETON_KINDS
    uniform = cls.kind in _UNIFORM_KINDS

    stack: list[tuple[Proof, tuple[int, ...]]] = [(proof, ())]
    while stack:
        node, path = stack.pop()
        if node.rule not in allowed:
            return CheckReport(False, f"rule {node.rule.value} is not part of class {cls}", path)
        if singleton and len(node.conclusion.succ) != 1:
            return CheckReport(
                False, f"class {cls} needs singleton succedents, found {node.conclusion}", path
            )
        if uniform:
            msg = _uniform_violation(node)
            if msg:
                return CheckReport(False, msg, path)
        msg = _check_node(node, cls, strengthened_axioms)
        if msg:
            return CheckReport(False, msg, path)
        for i, q in enumerate(node.premises):
            stack.append((q, path + (i,)))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# JSON round trip

#: version of the flat document layout, the only one load_proof reads
_FORMAT = 3


class _Text(weakref.ref):
    """A print memo entry: a weak reference to a formula that keeps the
    formula's id and printed text."""

    __slots__ = ("key", "text")


#: the printed text of each live formula a document listed, by the
#: formula's id.  An entry holds its formula weakly and is dropped when the
#: formula dies, before any other object can take that id, so the entry
#: found under an id is that very formula's, and the memo keeps no formula
#: alive.
_TEXTS: dict[int, _Text] = {}
#: the formula each member or goal text a document listed parses to
_PARSED: dict[str, Formula] = {}
#: held while storing into either memo, so threads cannot fill one past the cap
_MEMO_LOCK = threading.Lock()


def _forget(entry: _Text, memo=_TEXTS, remove=_remove_dead_weakref) -> None:
    # remove deletes the entry only while it holds a dead reference, as
    # syntax._drop does
    remove(memo, entry.key)


def _text(f: Formula) -> str:
    """format_formula(f), printed once per object while it lives, unless
    the memo was emptied at the cap."""
    got = _TEXTS.get(id(f))
    if got is None:
        got = _Text(f, _forget)
        got.key, got.text = id(f), format_formula(f)
        with _MEMO_LOCK:
            _stored(_TEXTS, got.key, got)
    return got.text


def _parsed(text: str) -> Formula:
    """parse_formula(text), parsed once while the memo keeps it; a text
    that fails to parse raises each time and is never stored."""
    f = _PARSED.get(text)
    if f is None:
        f = parse_formula(text)
        with _MEMO_LOCK:
            _stored(_PARSED, text, f)
    return f


def proof_to_json(p: Proof, cls: ProofClass) -> dict:
    """The flat document of p (see the module docstring).  Nodes are listed
    per occurrence, so a subproof used twice is listed twice.  Each root
    member's text comes from a process-wide memo keyed by the formula's id,
    so a formula many documents list is printed once while it lives."""
    nodes: list[dict] = []

    def leave(node: Proof, done: tuple[int, ...]) -> int:
        """Append node's entry; its index in nodes."""
        entry: dict = {"rule": node.rule.value}
        if node.principal is not None:
            entry["principal"] = list(node.principal)
        if node.witness is not None:
            entry["witness"] = format_term(node.witness)
        if node.eigen is not None:
            entry["eigen"] = node.eigen
        if node.rule is RuleId.IMP_L:
            # the succedent members that go to the first premise: each one the
            # second premise keeps is taken out of theta instead (remove gives None)
            theta = list(node.premises[1].conclusion.succ) if len(node.premises) > 1 else []
            entry["split"] = [i for i, g in enumerate(node.conclusion.succ) if g not in theta or theta.remove(g)]
        if done:
            entry["premises"] = list(done)
        nodes.append(entry)
        return len(nodes) - 1

    fold_proof(p, leave)

    doc: dict = {"format": _FORMAT, "class": cls.kind}
    if cls.goal is not None:
        doc["goal"] = _text(cls.goal)
    doc["ante"] = list(map(_text, p.conclusion.ante))
    doc["succ"] = list(map(_text, p.conclusion.succ))
    doc["nodes"] = nodes
    return doc


def _indices(entry: dict, key: str, bound: int) -> list[int]:
    """entry[key] (default empty) as a list of indices below bound."""
    value = entry.get(key, [])
    # the type and range checks run in C: one set of the types, then min and max
    if isinstance(value, list) and set(map(type, value)) <= {int}:
        if not value or 0 <= min(value) and max(value) < bound:
            return value
    raise ValueError(f"{key} must be a list of indices below {bound}, found {value!r}")


def proof_from_json(data: dict) -> tuple[Proof, ProofClass]:
    """The proof and class of a flat document, each conclusion below the
    root rebuilt from the root down.  ValueError (ParseError for bad
    formula or term text) unless the document keeps the layout of the
    module docstring and its rules rebuild every node.  Root member and
    goal texts are parsed through a process-wide memo keyed by the text."""
    if not isinstance(data, dict):
        raise ValueError("proof document must be a JSON object")
    if data.get("format") != _FORMAT:
        raise ValueError(f"unknown proof document format {data.get('format')!r}, expected {_FORMAT}")
    kind = data.get("class")
    if kind not in _KINDS:
        raise ValueError(f"unknown proof class {kind!r}")
    try:
        goal = data.get("goal")
        cls = ProofClass(kind, _parsed(goal) if goal is not None else None)
        ante, succ, entries = data["ante"], data["succ"], data["nodes"]
        if not (isinstance(ante, list) and isinstance(succ, list) and isinstance(entries, list)):
            raise ValueError("ante, succ and nodes must be lists")
        if not entries:
            raise ValueError("proof document has no nodes")
        # a node's conclusion is set by the node it is the premise of, which
        # comes after it: so from the root down, each is set before it is read
        conclusions: list = [None] * len(entries)
        conclusions[-1] = Sequent(map(_parsed, ante), map(_parsed, succ))
        fields: list = [None] * len(entries)
        for k in range(len(entries) - 1, -1, -1):
            s = conclusions[k]
            if s is None:
                raise ValueError(f"node {k} is not the premise of any node")
            entry = entries[k]
            rule = rule_from_string(entry["rule"])
            premises = _indices(entry, "premises", k)
            principal = entry.get("principal")
            if principal is not None:
                if not (
                    isinstance(principal, list)
                    and len(principal) == 2
                    and principal[0] in ("ante", "succ")
                    and isinstance(principal[1], int)
                ):
                    raise ValueError(f"bad principal {principal!r}")
                principal = tuple(principal)
            witness = entry.get("witness")
            if witness is not None:
                witness = parse_term(witness)
            eigen = entry.get("eigen")
            if eigen is not None and not isinstance(eigen, str):
                raise ValueError(f"bad eigenvariable {eigen!r}")
            delta1 = None
            if "split" in entry:
                delta1 = tuple(map(s.succ.__getitem__, _indices(entry, "split", len(s.succ))))
            elif rule is RuleId.IMP_L:
                raise ValueError(f"node {k}: rule imp-l needs a split")
            if cls.goal is None and rule in (RuleId.OR_L_RESTART, RuleId.RESTART):
                raise ValueError(f"node {k}: rule {rule.value} needs a restart goal")
            wanted = _premises_of(rule, s, principal, witness, eigen, cls.goal, delta1)
            if type(wanted) is str:
                raise ValueError(f"node {k}: {wanted}")
            if len(wanted) != len(premises):
                raise ValueError(f"node {k}: rule {rule.value} derives {len(wanted)} premises, found {len(premises)}")
            for j, t in zip(premises, wanted):
                if conclusions[j] is not None:
                    raise ValueError(f"node {j} is a premise of more than one node")
                conclusions[j] = t
            fields[k] = (rule, premises, principal, witness, eigen)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed proof document: {exc}") from exc
    built: list[Proof] = []
    for s, (rule, premises, principal, witness, eigen) in zip(conclusions, fields):
        built.append(Proof(rule, s, tuple(map(built.__getitem__, premises)), principal, witness, eigen))
    return built[-1], cls


def dump_proof(p: Proof, cls: ProofClass) -> str:
    """The compact JSON text of proof_to_json(p, cls).  The document names
    only the root's sequent, and load_proof rebuilds every other conclusion
    from the rule table, so the document describes p only when
    check_proof(p, cls) accepts it; a proof whose premises are not the ones
    its rules derive is written all the same and loads back as another
    proof."""
    return json.dumps(proof_to_json(p, cls), separators=(",", ":"))


def load_proof(text: str) -> tuple[Proof, ProofClass]:
    try:
        data = json.loads(text)
    except RecursionError:
        # json's decoder recurses on nesting; a flat document nests 4 deep
        raise ValueError("proof document nests too deeply") from None
    return proof_from_json(data)
