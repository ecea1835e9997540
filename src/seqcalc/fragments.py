"""Formula fragments with provability guarantees, and rule-profile conditions.

Each fragment is a pair of mutually recursive grammars: goal formulas
(succedent side) and clause formulas (antecedent side).  Sequents built
inside a fragment constrain which rules a classical proof can use, and rule
absences in turn guarantee reductions: to an intuitionistic proof, to a
goal-directed proof, or to a restart-style goal-directed proof.  The
`reduction_conditions` tables express those guarantees directly over a
proof's rule-family profile, so they apply to any proof, fragment-built or
not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .syntax import And, Exists, Forall, Formula, Imp, Or, Sequent


class FragmentId(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    LP_INT = "lp-int"
    LP_CLS = "lp-cls"


class Role(enum.Enum):
    GOAL = "goal"
    CLAUSE = "clause"
    #: implication-free goal stratum used by the classical logic-programming
    #: fragment (goals whose only implications sit at the outer spine)
    BASE_GOAL = "base-goal"


# Each fragment's grammar as data: role -> productions.  A production is
# "leaf" (an atom, top or bottom), a role name (a unit production such as
# goal := base-goal), or a connective with the roles of its operands.  A role
# has at most one production per connective.
_Grammar = dict[str, tuple]

_GRAMMARS: dict[FragmentId, _Grammar] = {
    FragmentId.F1: {
        "goal": ("leaf", (And, "goal", "goal"), (Or, "goal", "goal"), (Forall, "goal"), (Exists, "goal")),
        "clause": (
            "leaf",
            (Imp, "goal", "clause"),
            (And, "clause", "clause"),
            (Forall, "clause"),
            (Exists, "clause"),
        ),
    },
    FragmentId.F2: {
        "goal": ("leaf", (And, "goal", "goal"), (Or, "goal", "goal"), (Exists, "goal")),
        "clause": (
            "leaf",
            (Imp, "goal", "clause"),
            (And, "clause", "clause"),
            (Or, "clause", "clause"),
            (Forall, "clause"),
            (Exists, "clause"),
        ),
    },
    FragmentId.F3: {
        "goal": ("leaf", (And, "goal", "goal"), (Or, "goal", "goal"), (Forall, "goal"), (Exists, "goal")),
        "clause": (
            "leaf",
            (Imp, "goal", "clause"),
            (And, "clause", "clause"),
            (Or, "clause", "clause"),
            (Exists, "clause"),
        ),
    },
    FragmentId.F4: {
        "goal": ("leaf", (And, "goal", "goal"), (Imp, "clause", "goal"), (Forall, "goal")),
        "clause": (
            "leaf",
            (And, "clause", "clause"),
            (Or, "clause", "clause"),
            (Forall, "clause"),
            (Exists, "clause"),
        ),
    },
    FragmentId.LP_INT: {
        "goal": (
            "leaf",
            (And, "goal", "goal"),
            (Or, "goal", "goal"),
            (Imp, "clause", "goal"),
            (Forall, "goal"),
            (Exists, "goal"),
        ),
        "clause": ("leaf", (Imp, "goal", "clause"), (And, "clause", "clause"), (Forall, "clause")),
    },
    FragmentId.LP_CLS: {
        "base-goal": (
            "leaf",
            (And, "base-goal", "base-goal"),
            (Or, "base-goal", "base-goal"),
            (Forall, "base-goal"),
            (Exists, "base-goal"),
        ),
        "goal": ("base-goal", (Imp, "clause", "goal"), (And, "goal", "goal"), (Forall, "goal")),
        "clause": ("leaf", (Imp, "base-goal", "clause"), (And, "clause", "clause"), (Forall, "clause")),
    },
}

def _tables(grammar: _Grammar):
    """The grammar as lookup tables over role sets, each set a bit mask (bit
    n: the n-th role): each role's bit, the roles of a leaf, and per
    connective the roles it derives from its operands' roles, indexed by
    their masks.  Every entry is closed over the unit productions."""
    bit = {role: 1 << n for n, role in enumerate(grammar)}
    units = [(bit[role], bit[prod]) for role, prods in grammar.items() for prod in prods if prod in bit]

    def roles(connective: type | None, operands: tuple[int, ...] = ()) -> int:
        mask = 0
        for role, prods in grammar.items():
            for prod in prods:
                if connective is None and prod == "leaf" or (
                    type(prod) is tuple
                    and prod[0] is connective
                    and all(m & bit[r] for r, m in zip(prod[1:], operands))
                ):
                    mask |= bit[role]
        for _ in grammar:  # a chain of unit productions visits each role once
            for role_bit, source_bit in units:
                if mask & source_bit:
                    mask |= role_bit
        return mask

    masks = range(1 << len(grammar))
    binary = {k: [[roles(k, (l, r)) for r in masks] for l in masks] for k in (And, Or, Imp)}
    unary = {k: [roles(k, (b,)) for b in masks] for k in (Forall, Exists)}
    return bit, roles(None), binary, unary


_TABLES = {frag: _tables(grammar) for frag, grammar in _GRAMMARS.items()}
_COMPOUND = frozenset((And, Or, Imp, Forall, Exists))


def _roles(f: Formula, leaf: int, binary: dict, unary: dict) -> int:
    """The roles f derives from, as a bit mask.  One bottom-up pass over f's
    distinct subformulas on an explicit stack, so nesting depth costs no
    recursion: a leaf operand is looked up in place, and a compound node
    whose compound operands are not done yet goes back on the stack below
    them."""
    done: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        k = type(g)
        if k in binary:
            left, right = g.left, g.right
            lm = done.get(id(left)) if type(left) in _COMPOUND else leaf
            rm = done.get(id(right)) if type(right) in _COMPOUND else leaf
            if lm is not None and rm is not None:
                done[id(g)] = binary[k][lm][rm]
                continue
            stack.append(g)
            if lm is None:
                stack.append(left)
            if rm is None:
                stack.append(right)
        elif k in unary:
            body = g.body
            bm = done.get(id(body)) if type(body) in _COMPOUND else leaf
            if bm is not None:
                done[id(g)] = unary[k][bm]
                continue
            stack += (g, body)
        else:
            done[id(g)] = leaf
    return done[id(f)]


def classify(f: Formula, fragment: FragmentId | str, role: Role | str) -> bool:
    """Grammar membership of f in the given fragment and role."""
    if isinstance(fragment, str):
        fragment = FragmentId(fragment)
    if isinstance(role, str):
        role = Role(role)
    bit, leaf, binary, unary = _TABLES[fragment]
    if role.value not in bit:
        raise ValueError(f"fragment {fragment.value} has no role {role.value}")
    return bool(_roles(f, leaf, binary, unary) & bit[role.value])


# ---------------------------------------------------------------------------
# rule-profile conditions

Profile = frozenset[str]  # rule families, see calculus.rule_profile


class ReductionKind(enum.Enum):
    #: some single succedent member is provable intuitionistically
    SOME_GOAL = "some-goal"
    #: the succedent, folded into one disjunction, is provable intuitionistically
    GOAL_DISJUNCTION = "goal-disjunction"
    #: the sequent itself (already singleton-succedent) is provable intuitionistically
    SAME_SEQUENT = "same-sequent"


#: The rule families each condition of the intuitionistic stage forbids, by
#: ordinal.  The other stages, the F1-F4 guarantees and the extraction paths
#: of transform.extract_intuitionistic reuse these sets.
FORBIDDEN_FAMILIES: dict[int, frozenset[str]] = {
    1: frozenset({"imp-r", "or-l"}),
    2: frozenset({"imp-r", "forall-r"}),
    3: frozenset({"imp-r", "forall-l"}),
    4: frozenset({"imp-l", "or-r", "exists-r"}),
}


def _absent(gone: frozenset[str]) -> Callable[[Profile], bool]:
    return lambda profile: not (gone & profile)


def _uniform_cond(p: Profile) -> bool:
    or_ok = "or-l" not in p or ("or-r" not in p and "exists-r" not in p)
    ex_ok = "exists-l" not in p or "exists-r" not in p
    return or_ok and ex_ok


def _restart_cond2(p: Profile) -> bool:
    or_ok = "or-r" not in p or "or-l" not in p
    ex_ok = "exists-r" not in p or ("or-l" not in p and "exists-l" not in p)
    return or_ok and ex_ok


#: Ordered condition tables.  Keys are the reduction stage the profile is
#: tested for; the profile must come from the right kind of proof:
#:
#:   intuitionistic: profile of a classical proof; a satisfied condition
#:       guarantees an intuitionistic proof per ReductionKind.
#:   augmented: profile of a classical proof of `gamma |- delta`; a satisfied
#:       condition guarantees an intuitionistic proof of the augmented
#:       sequent `(f => bot), gamma |- f` for the folded succedent f.
#:   uniform: profile of an intuitionistic proof; guarantees a goal-directed
#:       proof of the same sequent.
#:   restart: profile of an intuitionistic proof of an augmented sequent;
#:       guarantees a restart goal-directed proof.
REDUCTION_STAGES: dict[str, tuple[tuple[int, Callable[[Profile], bool]], ...]] = {
    "intuitionistic": tuple((n, _absent(gone)) for n, gone in FORBIDDEN_FAMILIES.items()),
    "augmented": (
        (1, _absent(frozenset({"forall-r"}))),
        (2, _absent(FORBIDDEN_FAMILIES[1])),
        (3, _absent(FORBIDDEN_FAMILIES[3])),
        (4, _absent(FORBIDDEN_FAMILIES[4])),
    ),
    "uniform": ((1, _uniform_cond),),
    "restart": (
        (1, _absent(frozenset({"forall-r"}))),
        (2, _restart_cond2),
        (3, _absent(FORBIDDEN_FAMILIES[3])),
    ),
}

_INT_CONDITION_KIND = {
    1: ReductionKind.SOME_GOAL,
    2: ReductionKind.GOAL_DISJUNCTION,
    3: ReductionKind.GOAL_DISJUNCTION,
    4: ReductionKind.SAME_SEQUENT,
}


def reduction_conditions(profile: Profile, stage: str) -> int | None:
    """Ordinal of the first satisfied condition of the stage, or None."""
    try:
        table = REDUCTION_STAGES[stage]
    except KeyError:
        raise ValueError(f"unknown reduction stage {stage!r}") from None
    for ordinal, pred in table:
        if pred(profile):
            return ordinal
    return None


def implies_intuitionistic(profile: Profile) -> ReductionKind | None:
    """What an intuitionistic reduction of a classical proof with this profile yields."""
    ordinal = reduction_conditions(profile, "intuitionistic")
    return _INT_CONDITION_KIND[ordinal] if ordinal else None


# ---------------------------------------------------------------------------
# fragment guarantees


@dataclass(frozen=True)
class FragmentGuarantee:
    fragment: FragmentId
    #: rule families that classical proofs of in-fragment sequents never use
    avoided_rules: frozenset[str]
    #: what that absence buys, as a reduction stage name (see REDUCTION_STAGES)
    #: plus the reduction kind where one applies
    stage: str
    kind: ReductionKind | None = None


_GUARANTEES: dict[FragmentId, FragmentGuarantee] = {
    # fragment Fn meets condition n of the intuitionistic stage
    **{
        frag: FragmentGuarantee(frag, FORBIDDEN_FAMILIES[n], "intuitionistic", _INT_CONDITION_KIND[n])
        for n, frag in enumerate((FragmentId.F1, FragmentId.F2, FragmentId.F3, FragmentId.F4), 1)
    },
    FragmentId.LP_INT: FragmentGuarantee(
        FragmentId.LP_INT, frozenset({"or-l", "exists-l"}), "uniform", None
    ),
    FragmentId.LP_CLS: FragmentGuarantee(FragmentId.LP_CLS, frozenset(), "restart", None),
}


def guarantee_for(fragment: FragmentId | str) -> FragmentGuarantee:
    if isinstance(fragment, str):
        fragment = FragmentId(fragment)
    return _GUARANTEES[fragment]


def fragment_guarantee(s: Sequent, fragment: FragmentId | str) -> bool:
    """Whether the sequent is covered by the fragment's reduction guarantee.

    True iff every antecedent member is a clause and the single succedent
    member a goal of the fragment.  Requires a singleton succedent.
    """
    if len(s.succ) != 1:
        raise ValueError("fragment guarantees apply to singleton-succedent sequents")
    return classify(s.succ[0], fragment, Role.GOAL) and all(
        classify(f, fragment, Role.CLAUSE) for f in s.ante
    )
