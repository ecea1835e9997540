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

from .syntax import And, Atom, Bot, Exists, Forall, Formula, Imp, Or, Sequent, Top


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


def _leaf(f: Formula) -> bool:
    return isinstance(f, (Top, Bot, Atom))


# Each fragment gets two (or three) hand-written recursive predicates.  They
# deliberately mirror the grammar productions one branch per production.


def _f1_goal(f: Formula) -> bool:
    match f:
        case And(l, r) | Or(l, r):
            return _f1_goal(l) and _f1_goal(r)
        case Forall(body=b) | Exists(body=b):
            return _f1_goal(b)
        case _:
            return _leaf(f)


def _f1_clause(f: Formula) -> bool:
    match f:
        case Imp(l, r):
            return _f1_goal(l) and _f1_clause(r)
        case And(l, r):
            return _f1_clause(l) and _f1_clause(r)
        case Exists(body=b) | Forall(body=b):
            return _f1_clause(b)
        case _:
            return _leaf(f)


def _f2_goal(f: Formula) -> bool:
    match f:
        case And(l, r) | Or(l, r):
            return _f2_goal(l) and _f2_goal(r)
        case Exists(body=b):
            return _f2_goal(b)
        case _:
            return _leaf(f)


def _f2_clause(f: Formula) -> bool:
    match f:
        case Imp(l, r):
            return _f2_goal(l) and _f2_clause(r)
        case And(l, r) | Or(l, r):
            return _f2_clause(l) and _f2_clause(r)
        case Exists(body=b) | Forall(body=b):
            return _f2_clause(b)
        case _:
            return _leaf(f)


def _f3_goal(f: Formula) -> bool:
    return _f1_goal(f)


def _f3_clause(f: Formula) -> bool:
    match f:
        case Imp(l, r):
            return _f3_goal(l) and _f3_clause(r)
        case And(l, r) | Or(l, r):
            return _f3_clause(l) and _f3_clause(r)
        case Exists(body=b):
            return _f3_clause(b)
        case _:
            return _leaf(f)


def _f4_goal(f: Formula) -> bool:
    match f:
        case And(l, r):
            return _f4_goal(l) and _f4_goal(r)
        case Imp(l, r):
            return _f4_clause(l) and _f4_goal(r)
        case Forall(body=b):
            return _f4_goal(b)
        case _:
            return _leaf(f)


def _f4_clause(f: Formula) -> bool:
    match f:
        case And(l, r) | Or(l, r):
            return _f4_clause(l) and _f4_clause(r)
        case Exists(body=b) | Forall(body=b):
            return _f4_clause(b)
        case _:
            return _leaf(f)


def _lpint_goal(f: Formula) -> bool:
    match f:
        case And(l, r) | Or(l, r):
            return _lpint_goal(l) and _lpint_goal(r)
        case Imp(l, r):
            return _lpint_clause(l) and _lpint_goal(r)
        case Forall(body=b) | Exists(body=b):
            return _lpint_goal(b)
        case _:
            return _leaf(f)


def _lpint_clause(f: Formula) -> bool:
    match f:
        case Imp(l, r):
            return _lpint_goal(l) and _lpint_clause(r)
        case And(l, r):
            return _lpint_clause(l) and _lpint_clause(r)
        case Forall(body=b):
            return _lpint_clause(b)
        case _:
            return _leaf(f)


def _lpcls_base(f: Formula) -> bool:
    match f:
        case And(l, r) | Or(l, r):
            return _lpcls_base(l) and _lpcls_base(r)
        case Forall(body=b) | Exists(body=b):
            return _lpcls_base(b)
        case _:
            return _leaf(f)


def _lpcls_goal(f: Formula) -> bool:
    if _lpcls_base(f):
        return True
    match f:
        case Imp(l, r):
            return _lpcls_clause(l) and _lpcls_goal(r)
        case And(l, r):
            return _lpcls_goal(l) and _lpcls_goal(r)
        case Forall(body=b):
            return _lpcls_goal(b)
        case _:
            return False


def _lpcls_clause(f: Formula) -> bool:
    match f:
        case Imp(l, r):
            return _lpcls_base(l) and _lpcls_clause(r)
        case And(l, r):
            return _lpcls_clause(l) and _lpcls_clause(r)
        case Forall(body=b):
            return _lpcls_clause(b)
        case _:
            return _leaf(f)


_CLASSIFIERS: dict[tuple[FragmentId, Role], Callable[[Formula], bool]] = {
    (FragmentId.F1, Role.GOAL): _f1_goal,
    (FragmentId.F1, Role.CLAUSE): _f1_clause,
    (FragmentId.F2, Role.GOAL): _f2_goal,
    (FragmentId.F2, Role.CLAUSE): _f2_clause,
    (FragmentId.F3, Role.GOAL): _f3_goal,
    (FragmentId.F3, Role.CLAUSE): _f3_clause,
    (FragmentId.F4, Role.GOAL): _f4_goal,
    (FragmentId.F4, Role.CLAUSE): _f4_clause,
    (FragmentId.LP_INT, Role.GOAL): _lpint_goal,
    (FragmentId.LP_INT, Role.CLAUSE): _lpint_clause,
    (FragmentId.LP_CLS, Role.GOAL): _lpcls_goal,
    (FragmentId.LP_CLS, Role.CLAUSE): _lpcls_clause,
    (FragmentId.LP_CLS, Role.BASE_GOAL): _lpcls_base,
}


def classify(f: Formula, fragment: FragmentId | str, role: Role | str) -> bool:
    """Grammar membership of f in the given fragment and role."""
    if isinstance(fragment, str):
        fragment = FragmentId(fragment)
    if isinstance(role, str):
        role = Role(role)
    try:
        return _CLASSIFIERS[(fragment, role)](f)
    except KeyError:
        raise ValueError(f"fragment {fragment.value} has no role {role.value}") from None


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
