"""Proof checking: rule schemata, class constraints, metrics, JSON round trip."""

import contextlib
import copy
import dataclasses
import gc
import itertools
import json
import pickle
import random
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import calculus, syntax
from seqcalc.calculus import (
    _RULES,
    CLASSICAL,
    CLASSICAL_STAR,
    INTUITIONISTIC,
    UNIFORM,
    Proof,
    ProofClass,
    RuleId,
    check_proof,
    dump_proof,
    is_axiom,
    load_proof,
    premises,
    proof_height,
    proof_nodes,
    proof_size,
    restart_class,
    rule_family,
    rule_from_string,
    rule_profile,
    rule_usage,
)
from seqcalc.parser import ParseError, parse_formula, parse_sequent
from seqcalc.search import NotProvedWithinLimits, Proved, Refuted, SearchLimits, prove, prove_restart
from seqcalc.syntax import (
    And,
    App,
    Atom,
    Bot,
    Const,
    Exists,
    Forall,
    Imp,
    Meta,
    Or,
    Sequent,
    Top,
    Var,
    _MEMO_CAP,
    exists,
    forall,
    format_formula,
)
from seqcalc.transform import TransformError, expand_starred, extract_intuitionistic, weaken

from _documents import DEEPLY_NESTED, FLAT, MALFORMED, malformed
from _oracles import random_goal_sequent, random_propositional_sequent, reference_check_proof, reference_premises

Q, S, T = Atom("q"), Atom("s"), Atom("t")


def axiom(ante, succ):
    return Proof(RuleId.AXIOM, Sequent(tuple(ante), tuple(succ)))


# ---------------------------------------------------------------------------
# axiom recognition


def test_atomic_axiom():
    assert is_axiom(Sequent((Atom("p", (Const("a"),)),), (Atom("p", (Const("a"),)),)))


def test_shared_compound_needs_strengthening():
    f = And(Atom("p", (Const("a"),)), Q)
    s = Sequent((f,), (f,))
    assert not is_axiom(s)
    assert is_axiom(s, strengthened=True)


def test_top_on_right_closes():
    assert is_axiom(Sequent((), (Top(), Bot())))


def test_shared_bot_closes():
    assert is_axiom(Sequent((Bot(),), (Bot(),)))


def test_unrelated_atoms_do_not_close():
    assert not is_axiom(Sequent((Q,), (S,)), strengthened=True)


# ---------------------------------------------------------------------------
# node-level checking


def test_single_axiom_is_classical():
    assert check_proof(axiom([Q], [Q]), CLASSICAL)


def test_two_formula_succedent_rejected_in_singleton_class():
    rep = check_proof(axiom([Q], [Q, S]), INTUITIONISTIC)
    assert not rep
    assert "singleton" in rep.message


def test_compound_goal_must_match_its_right_rule_in_uniform_class():
    # the node is schema-correct (it passes as a classical inference), but a
    # goal-directed proof may only attack a disjunctive goal with or-r
    seq = Sequent((Imp(Q, S),), (Or(Q, S),))
    node = Proof(
        RuleId.IMP_L,
        seq,
        (axiom([], [Q, Or(Q, S)]), axiom([S], [])),
        principal=("ante", 0),
    )
    rep = check_proof(node, UNIFORM)
    assert not rep and rep.path == ()
    assert "right rule" in rep.message and "imp-l" in rep.message
    rep_c = check_proof(node, CLASSICAL)
    assert not rep_c and rep_c.path != ()  # the root itself is fine classically


def test_starred_rules_confined_to_starred_classes():
    node = Proof(
        RuleId.AND_L_STAR,
        Sequent((And(Q, S),), (Q,)),
        (axiom([Q, S], [Q]),),
        principal=("ante", 0),
    )
    assert check_proof(node, CLASSICAL_STAR)
    rep = check_proof(node, CLASSICAL)
    assert not rep and "and-l*" in rep.message


def test_contraction_rejected_in_starred_classes():
    node = Proof(
        RuleId.CONTR_L,
        Sequent((Q,), (Q,)),
        (axiom([Q, Q], [Q]),),
        principal=("ante", 0),
    )
    assert check_proof(node, CLASSICAL)
    assert not check_proof(node, CLASSICAL_STAR)


def test_wrong_premise_shape_rejected():
    f = And(Q, S)
    node = Proof(
        RuleId.AND_R,
        Sequent((), (f,)),
        (axiom([], [Q]), axiom([], [Q])),  # right premise should conclude s
        principal=("succ", 0),
    )
    rep = check_proof(node, CLASSICAL)
    assert not rep and "expected premises" in rep.message


def test_principal_index_out_of_range():
    node = Proof(RuleId.AND_R, Sequent((), (And(Q, S),)), (), principal=("succ", 3))
    rep = check_proof(node, CLASSICAL)
    assert not rep and "out of range" in rep.message


def test_missing_principal_rejected():
    node = Proof(RuleId.AND_R, Sequent((), (And(Q, S),)), ())
    assert "principal" in check_proof(node, CLASSICAL).message


def test_failure_path_names_the_offending_premise():
    good = axiom([Q], [Q])
    bad = axiom([Q], [S])
    node = Proof(
        RuleId.AND_R,
        Sequent((Q,), (And(Q, S),)),
        (good, bad),
        principal=("succ", 0),
    )
    rep = check_proof(node, CLASSICAL)
    assert not rep and rep.path == (1,)


# Every rule with a principal formula: its side, the connective its principal
# must have (None: any), the phrase the checker names it by (verbatim, "a
# exists formula" included), the class the rule is checked in, and the binder
# datum it needs ("witness", "eigen" or None).
_RULE_SHAPES = {
    RuleId.CONTR_L: ("ante", None, None, "c", None),
    RuleId.CONTR_R: ("succ", None, None, "c", None),
    RuleId.BOT_R: ("succ", None, None, "c", None),
    RuleId.AND_L_LEFT: ("ante", And, "a conjunction", "c", None),
    RuleId.AND_L_RIGHT: ("ante", And, "a conjunction", "c", None),
    RuleId.AND_L_STAR: ("ante", And, "a conjunction", "cstar", None),
    RuleId.OR_L: ("ante", Or, "a disjunction", "c", None),
    RuleId.OR_L_RESTART: ("ante", Or, "a disjunction", "ig", None),
    RuleId.AND_R: ("succ", And, "a conjunction", "c", None),
    RuleId.OR_R_LEFT: ("succ", Or, "a disjunction", "c", None),
    RuleId.OR_R_RIGHT: ("succ", Or, "a disjunction", "c", None),
    RuleId.OR_R_STAR: ("succ", Or, "a disjunction", "cstar", None),
    RuleId.IMP_L: ("ante", Imp, "an implication", "c", None),
    RuleId.IMP_L_STAR: ("ante", Imp, "an implication", "cstar", None),
    RuleId.IMP_L_STAR_INT: ("ante", Imp, "an implication", "istar", None),
    RuleId.IMP_R: ("succ", Imp, "an implication", "c", None),
    RuleId.FORALL_L: ("ante", Forall, "a forall formula", "c", "witness"),
    RuleId.FORALL_L_STAR: ("ante", Forall, "a forall formula", "cstar", "witness"),
    RuleId.EXISTS_R: ("succ", Exists, "an exists formula", "c", "witness"),
    RuleId.EXISTS_R_STAR: ("succ", Exists, "an exists formula", "cstar", "witness"),
    RuleId.EXISTS_L: ("ante", Exists, "an exists formula", "c", "eigen"),
    RuleId.FORALL_R: ("succ", Forall, "a forall formula", "c", "eigen"),
}

_SAMPLES = {
    And: And(Q, S),
    Or: Or(Q, S),
    Imp: Imp(Q, S),
    Forall: forall("x", Atom("p", (Var("x"),))),
    Exists: exists("x", Atom("p", (Var("x"),))),
}


def _shape_class(kind):
    return ProofClass(kind, Q) if kind in ("ig", "og") else ProofClass(kind)


def test_rule_shape_table_covers_every_rule_with_a_principal():
    assert set(_RULE_SHAPES) == set(RuleId) - {RuleId.AXIOM, RuleId.RESTART}


@pytest.mark.parametrize(
    "rule",
    [r for r, shape in _RULE_SHAPES.items() if shape[1] is not None],
    ids=lambda r: r.value,
)
def test_checker_rejects_a_principal_of_the_wrong_connective(rule):
    side, conn, noun, kind, _ = _RULE_SHAPES[rule]
    wrong = Or(Q, S) if conn is And else And(Q, S)
    node = Proof(rule, Sequent((wrong,), (wrong,)), (), principal=(side, 0))
    rep = check_proof(node, _shape_class(kind))
    assert not rep and rep.path == ()
    assert rep.message == f"principal of {rule.value} must be {noun}"


@pytest.mark.parametrize("rule", list(_RULE_SHAPES), ids=lambda r: r.value)
def test_checker_rejects_a_principal_on_the_wrong_side(rule):
    side, conn, _, kind, _ = _RULE_SHAPES[rule]
    f = _SAMPLES[conn] if conn is not None else Q
    other = "succ" if side == "ante" else "ante"
    node = Proof(rule, Sequent((f,), (f,)), (), principal=(other, 0))
    rep = check_proof(node, _shape_class(kind))
    assert not rep and rep.path == ()
    assert rep.message == f"rule {rule.value} expects its principal on the {side} side"


@pytest.mark.parametrize(
    "rule",
    [r for r, shape in _RULE_SHAPES.items() if shape[4]],
    ids=lambda r: r.value,
)
def test_checker_rejects_a_quantifier_rule_without_its_term(rule):
    side, conn, _, kind, needs = _RULE_SHAPES[rule]
    f = _SAMPLES[conn]
    node = Proof(rule, Sequent((f,), (f,)), (), principal=(side, 0))
    rep = check_proof(node, _shape_class(kind))
    assert not rep and rep.path == ()
    if needs == "witness":
        assert rep.message == f"rule {rule.value} needs a witness term"
    else:
        assert rep.message == f"rule {rule.value} needs an eigenvariable"


# ---------------------------------------------------------------------------
# the premise table against the sorting reference


def _px(v):
    return forall(v, Atom("p", (Var(v),)))


def _ex(v):
    return exists(v, Atom("p", (Var(v),)))


# alpha-variants (binder hints x and y) are distinct objects with equal sort
# keys, so the property also sees the order kept among equal keys
_MEMBERS = [
    Q,
    S,
    Bot(),
    *(g for v in "xy" for g in (_px(v), _ex(v), And(_px(v), Q), Imp(_ex(v), S))),
    Or(_px("x"), _px("y")),
    Or(_px("y"), _px("x")),
    And(_ex("x"), _ex("y")),
    Imp(_px("x"), _px("y")),
    forall("x", And(Atom("p", (Var("x"),)), Q)),
    exists("y", Or(Q, Atom("p", (Var("y"),)))),
]
_TERMS = [Const("a"), Const("b"), App("f", (Const("a"),))]


@settings(max_examples=400)
@given(st.data())
def test_premise_table_matches_the_sorting_reference(data):
    rule = data.draw(st.sampled_from([r for r in _RULE_SHAPES if r is not RuleId.IMP_L]), "rule")
    side, conn, _, _, needs = _RULE_SHAPES[rule]
    f = data.draw(st.sampled_from([g for g in _MEMBERS if conn is None or type(g) is conn]), "principal")
    ante = data.draw(st.lists(st.sampled_from(_MEMBERS), max_size=4), "ante")
    succ = data.draw(st.lists(st.sampled_from(_MEMBERS), max_size=3), "succ")
    own = ante if side == "ante" else succ
    own.insert(data.draw(st.integers(0, len(own)), "at"), f)
    s = Sequent(tuple(ante), tuple(succ))
    index = next(i for i, g in enumerate(s.ante if side == "ante" else s.succ) if g is f)
    goal = data.draw(st.sampled_from(_MEMBERS), "goal")
    if needs == "eigen":
        name = data.draw(st.sampled_from(["a", "c", "e0"]), "eigen")
        want = reference_premises(rule, s, index, f, eigen=name, goal=goal)
        got = premises(rule, s, index, f, Const(name), goal)
    else:
        term = data.draw(st.sampled_from(_TERMS), "term")
        want = reference_premises(rule, s, index, f, witness=term, goal=goal)
        got = premises(rule, s, index, f, term, goal)
    assert got == want
    assert [([id(g) for g in p.ante], [id(g) for g in p.succ]) for p in got] == [
        ([id(g) for g in p.ante], [id(g) for g in p.succ]) for p in want
    ]


def test_rule_table_has_the_principal_shape_of_every_rule():
    assert {r: shape[:2] for r, shape in _RULES.items()} == {r: shape[:2] for r, shape in _RULE_SHAPES.items()}


@pytest.mark.parametrize(
    "rule, message",
    [
        (RuleId.AXIOM, "rule axiom has no principal formula"),
        (RuleId.RESTART, "rule restart has no principal formula"),
        (RuleId.IMP_L, "rule imp-l leaves its succedent split free"),
    ],
    ids=["axiom", "restart", "imp-l"],
)
def test_premises_refuses_rules_without_fixed_premises(rule, message):
    f = Imp(Q, S)
    s = Sequent((f,), (Q, S))
    for build in (premises, reference_premises):
        with pytest.raises(ValueError) as err:
            build(rule, s, 0, f)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# eigenvariable provisos


PX = forall("x", Atom("p", (Var("x"),)))


def _forall_r(conclusion_extra, eigen):
    inst = Atom("p", (Const(eigen),))
    return Proof(
        RuleId.FORALL_R,
        Sequent(conclusion_extra, (PX,)),
        (axiom(conclusion_extra, [inst]),),
        principal=("succ", 0),
        eigen=eigen,
    )


def test_fresh_eigenvariable_accepted():
    node = _forall_r((Atom("p", (Const("b"),)),), "c")
    rep = check_proof(node, CLASSICAL)
    assert not rep.ok and "not an axiom" in rep.message  # leaf fails, rule is fine
    assert rep.path == (0,)


def test_eigenvariable_clash_with_conclusion_rejected():
    node = _forall_r((Atom("p", (Const("a"),)),), "a")
    rep = check_proof(node, CLASSICAL)
    assert not rep and "already occurs" in rep.message


def test_eigenvariable_clash_with_restart_goal_rejected():
    node = _forall_r((), "a")
    cls = ProofClass("og", goal=Atom("p", (Const("a"),)))
    rep = check_proof(node, cls)
    assert not rep and "restart goal" in rep.message


# ---------------------------------------------------------------------------
# restart classes


def test_restart_classes_require_goal():
    with pytest.raises(ValueError):
        ProofClass("og")
    with pytest.raises(ValueError):
        ProofClass("ig")


def test_plain_classes_reject_goal():
    with pytest.raises(ValueError):
        ProofClass("c", goal=Q)


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        ProofClass("og2")


def test_restart_class_helper():
    assert restart_class(Q).kind == "og"
    assert str(ProofClass("ig", Q)) == "ig[q]"
    assert str(restart_class(Q)) == "og[q]"


def test_restart_node_reproves_the_goal():
    cls = ProofClass("og", goal=Q)
    node = Proof(RuleId.RESTART, Sequent((Q,), (T,)), (axiom([Q], [Q]),))
    assert check_proof(node, cls)
    assert check_proof(node, ProofClass("ig", goal=Q))
    wrong = ProofClass("og", goal=S)
    assert not check_proof(node, wrong)


def test_restart_node_rejected_outside_the_restart_classes():
    node = Proof(RuleId.RESTART, Sequent((Q,), (T,)), (axiom([Q], [Q]),))
    rep = check_proof(node, INTUITIONISTIC)
    assert not rep and rep.path == ()
    assert rep.message == "rule restart is not part of class i"


def test_plain_or_l_banned_in_restart_classes():
    f = Or(Q, Q)
    node = Proof(
        RuleId.OR_L,
        Sequent((f,), (Q,)),
        (axiom([Q], [Q]), axiom([Q], [Q])),
        principal=("ante", 0),
    )
    assert check_proof(node, CLASSICAL)
    rep = check_proof(node, ProofClass("og", goal=Q))
    assert not rep and "or-l" in rep.message


def test_or_l_restart_second_branch_swaps_goal():
    # antecedent position is multiset-canonical, so look the indexes up
    cls = ProofClass("og", goal=Q)
    f, imp = Or(Q, S), Imp(S, Q)
    conclusion = Sequent((f, imp), (Q,))
    second = Sequent((imp, S), (Q,))
    node = Proof(
        RuleId.OR_L_RESTART,
        conclusion,
        (
            axiom([Q, imp], [Q]),
            Proof(
                RuleId.IMP_L,
                second,
                (axiom([S], [S]), axiom([Q, S], [Q])),
                principal=("ante", second.ante.index(imp)),
            ),
        ),
        principal=("ante", conclusion.ante.index(f)),
    )
    assert check_proof(node, cls)
    # same tree with the restart goal changed: second premise no longer fits
    assert not check_proof(node, ProofClass("og", goal=T))


# ---------------------------------------------------------------------------
# axiom, restart and imp-l: premises that no builder in the table gives


_IMP = Imp(Q, S)
#: q, q => s |- s, t, t, forall x. p(x), forall y. p(y); the last two are
#: alpha-variants, so a split may send either one to either premise
_DELTA = (S, T, T, _px("x"), _px("y"))


def _imp_l(first, second, delta=_DELTA):
    s = Sequent((Q, _IMP), delta)
    return Proof(RuleId.IMP_L, s, tuple(first) + tuple(second), ("ante", s.ante.index(_IMP)))


def test_imp_l_accepts_every_split_of_its_succedent():
    # the first premise, q |- delta1, q, is an axiom; the second, q, s |-
    # theta, is one exactly when it keeps s
    accepted = 0
    for picks in itertools.product((False, True), repeat=len(_DELTA)):
        delta1 = tuple(g for g, first in zip(_DELTA, picks) if first)
        theta = tuple(g for g, first in zip(_DELTA, picks) if not first)
        node = _imp_l([axiom([Q], delta1 + (Q,))], [axiom([Q, S], theta)])
        for rep in (check_proof(node, CLASSICAL), reference_check_proof(node, CLASSICAL)):
            if S in theta:
                assert rep
            else:
                assert not rep and rep.path == (1,) and rep.message.startswith("not an axiom")
        accepted += S in theta
    assert accepted == 2 ** (len(_DELTA) - 1)


@pytest.mark.parametrize(
    "first, second, message",
    [
        ((), (), "split"),
        ([axiom([Q], [S])], [axiom([Q, S], [S])], "split"),
        ([axiom([Q], [Q, Atom("u")])], [axiom([Q, S], _DELTA)], "split"),
        ([axiom([Q], [Q, S, S])], [axiom([Q, S], _DELTA[1:])], "split"),
        (
            [axiom([Q], [Q])],
            [],
            "imp-l: expected premises [q |- q; q, s |- s, t, t, forall x. p(x), forall y. p(y)], found [q |- q]",
        ),
        (
            [axiom([Q, T], [Q])],
            [axiom([Q, S], _DELTA)],
            "imp-l: expected premises [q |- q; q, s |- s, t, t, forall x. p(x), forall y. p(y)], "
            "found [q, t |- q; q, s |- s, t, t, forall x. p(x), forall y. p(y)]",
        ),
        (
            [axiom([Q], [Q, T])],
            [axiom([Q, S], _DELTA[:2] + _DELTA[3:]), axiom([Q], [Q])],
            "imp-l: expected premises [q |- q, t; q, s |- s, t, forall x. p(x), forall y. p(y)], "
            "found [q |- q, t; q, s |- s, t, forall x. p(x), forall y. p(y); q |- q]",
        ),
    ],
    ids=["no-premises", "no-antecedent", "foreign-member", "member-twice", "one-premise", "wrong-antecedent", "three"],
)
def test_imp_l_rejects_premises_off_its_split(first, second, message):
    if message == "split":
        message = (
            "imp-l: the first premise's succedent must be the implication's "
            "antecedent plus part of the conclusion's succedent"
        )
    node = _imp_l(first, second)
    rep = check_proof(node, CLASSICAL)
    assert not rep and rep.path == () and rep.message == message
    want = reference_check_proof(node, CLASSICAL)
    assert not want and want.path == ()


def test_axiom_and_restart_reject_a_wrong_premise_count():
    rep = check_proof(Proof(RuleId.AXIOM, Sequent((Q,), (Q,)), (axiom([Q], [Q]),)), CLASSICAL)
    assert not rep and rep.path == ()
    assert rep.message == "axiom: expected premises [], found [q |- q]"
    cls = ProofClass("og", goal=Q)
    for subs, found in (((), ""), ((axiom([Q], [Q]),) * 2, "q |- q; q |- q")):
        rep = check_proof(Proof(RuleId.RESTART, Sequent((Q,), (T,)), subs), cls)
        assert not rep and rep.path == ()
        assert rep.message == f"restart: expected premises [q |- q], found [{found}]"


def test_a_witness_with_a_metavariable_is_rejected():
    inst = Atom("p", (Meta(1),))
    node = Proof(RuleId.FORALL_L, Sequent((PX,), (Q,)), (axiom([inst], [Q]),), ("ante", 0), witness=Meta(1))
    rep = check_proof(node, CLASSICAL)
    assert not rep and rep.path == ()
    assert rep.message == "witness term contains unresolved metavariables"


def _replaced(p: Proof, path: tuple[int, ...], new: Proof) -> Proof:
    """p with its node at path replaced by new."""
    if not path:
        return new
    subs = list(p.premises)
    subs[path[0]] = _replaced(subs[path[0]], path[1:], new)
    return dataclasses.replace(p, premises=tuple(subs))


def _mutant(rng: random.Random, node: Proof) -> Proof:
    """node with one premise added or removed, or one member dropped from a
    premise's conclusion, added to it, moved to its other side or moved to
    another premise's conclusion."""
    subs = list(node.premises)
    kinds = ["add-premise"] + ["remove-premise", "drop", "add", "move"] * bool(subs) + ["shift"] * 2 * (len(subs) > 1)
    kind = rng.choice(kinds)
    if kind == "add-premise":
        extra = rng.choice(subs + [axiom(node.conclusion.ante, node.conclusion.succ)])
        subs.insert(rng.randrange(len(subs) + 1), extra)
    elif kind == "remove-premise":
        del subs[rng.randrange(len(subs))]
    else:
        j = rng.randrange(len(subs))
        sides = [list(subs[j].conclusion.ante), list(subs[j].conclusion.succ)]
        if kind == "add" or not any(sides):
            sides[rng.randrange(2)].append(rng.choice([Q, *node.conclusion.ante, *node.conclusion.succ]))
        else:
            k = rng.choice([k for k in (0, 1) if sides[k]])
            f = sides[k].pop(rng.randrange(len(sides[k])))
            if kind == "move":
                sides[1 - k].append(f)
            elif kind == "shift":
                other = rng.choice([i for i in range(len(subs)) if i != j])
                into = [list(subs[other].conclusion.ante), list(subs[other].conclusion.succ)]
                into[k].append(f)
                subs[other] = dataclasses.replace(subs[other], conclusion=Sequent(*into))
        subs[j] = dataclasses.replace(subs[j], conclusion=Sequent(*sides))
    return dataclasses.replace(node, premises=tuple(subs))


@pytest.mark.parametrize("seed", range(3))
def test_mutated_premises_get_the_verdict_of_the_hand_written_checker(seed):
    # expanded classical proofs hold multi-succedent imp-l nodes, restart
    # proofs that restart hold restart and singleton imp-l nodes, and all
    # of them hold axioms
    rng = random.Random(seed)
    limits = SearchLimits(node_budget=250)
    bases = []
    for _ in range(40):
        out = prove(random_propositional_sequent(rng, 8), "c", limits)
        if isinstance(out, Proved):
            bases.append((expand_starred(out.proof), CLASSICAL))
    for _ in range(200):
        out = prove_restart(random_goal_sequent(rng), limits)
        if isinstance(out, Proved) and RuleId.RESTART in rule_usage(out.proof):
            bases.append((out.proof, out.proof_class))
    verdicts = {rule: set() for rule in (RuleId.IMP_L, RuleId.RESTART, RuleId.AXIOM)}
    for proof, cls in bases:
        assert check_proof(proof, cls) and reference_check_proof(proof, cls)
        stack = [(proof, ())]
        while stack:
            node, path = stack.pop()
            stack += [(q, path + (i,)) for i, q in enumerate(node.premises)]
            if node.rule not in verdicts:
                continue
            for _ in range(4):
                mutant = _replaced(proof, path, _mutant(rng, node))
                got, want = check_proof(mutant, cls), reference_check_proof(mutant, cls)
                assert (got.ok, got.path) == (want.ok, want.path)
                verdicts[node.rule].add("ok" if got else "here" if got.path == path else "below")
    # each rule rejects some mutants at the mutated node itself
    assert all("here" in seen for seen in verdicts.values())


# ---------------------------------------------------------------------------
# deep proofs: each member is scanned for metavariables once


def test_the_goal_directed_proof_of_a_600_deep_implication_chain_replays():
    # q => ... => q => p, q |- p: one imp-l step per implication, each
    # sequent a member shorter than the one below it
    f = Atom("p")
    for _ in range(600):
        f = Imp(Q, f)
    res = prove(Sequent((f, Q), (Atom("p"),)), "o")
    assert isinstance(res, Proved) and proof_height(res.proof) > 1_200
    assert check_proof(res.proof, res.proof_class)


def test_a_metavariable_deep_in_a_proof_is_found_at_its_node():
    # 600 imp-r steps down to the restart goal's first appearance: the
    # restart premise is the only sequent that holds the metavariable
    goal = Atom("p", (Meta(1),))
    depth = 600
    chain = [Atom("r")]
    for _ in range(depth):
        chain.append(Imp(Q, chain[-1]))
    node = Proof(RuleId.RESTART, Sequent((Q,) * depth, (chain[0],)), (axiom([Q] * depth, [goal]),))
    for k in range(1, depth + 1):
        node = Proof(RuleId.IMP_R, Sequent((Q,) * (depth - k), (chain[k],)), (node,), principal=("succ", 0))
    rep = check_proof(node, restart_class(goal))
    assert not rep
    assert rep.message == "sequent contains unresolved metavariables"
    assert rep.path == (0,) * (depth + 1)


# ---------------------------------------------------------------------------
# metrics and profiles


def test_height_and_size_of_a_leaf():
    p = axiom([Q], [Q])
    assert proof_height(p) == 1
    assert proof_size(p) == 1


def test_height_takes_the_longest_branch():
    leaf = axiom([Q], [Q])
    tall = Proof(
        RuleId.CONTR_L,
        Sequent((Q,), (Q,)),
        (Proof(RuleId.CONTR_L, Sequent((Q,), (Q,)), (axiom([Q, Q, Q], [Q]),), principal=("ante", 0)),),
        principal=("ante", 0),
    )
    node = Proof(RuleId.AND_R, Sequent((Q,), (And(Q, Q),)), (leaf, tall), principal=("succ", 0))
    assert proof_height(node) == 4
    assert proof_size(node) == 5


def test_rule_usage_is_a_set_of_rule_ids():
    node = Proof(
        RuleId.IMP_R,
        Sequent((), (Imp(Q, Q),)),
        (axiom([Q], [Q]),),
        principal=("succ", 0),
    )
    assert rule_usage(node) == frozenset({RuleId.IMP_R, RuleId.AXIOM})
    assert rule_usage(axiom([Q], [Q])) == frozenset({RuleId.AXIOM})


def test_rule_profile_excludes_axiom_and_merges_families():
    node = Proof(
        RuleId.AND_L_LEFT,
        Sequent((And(Q, S),), (Q,)),
        (axiom([Q], [Q]),),
        principal=("ante", 0),
    )
    assert rule_profile(node) == frozenset({"and-l"})


@pytest.mark.parametrize(
    "rule,family",
    [
        (RuleId.AND_L_LEFT, "and-l"),
        (RuleId.AND_L_RIGHT, "and-l"),
        (RuleId.AND_L_STAR, "and-l"),
        (RuleId.OR_R_LEFT, "or-r"),
        (RuleId.OR_R_STAR, "or-r"),
        (RuleId.IMP_L_STAR, "imp-l"),
        (RuleId.IMP_L_STAR_INT, "imp-l"),
        (RuleId.FORALL_L_STAR, "forall-l"),
        (RuleId.EXISTS_R_STAR, "exists-r"),
        (RuleId.OR_L, "or-l"),
        (RuleId.RESTART, "restart"),
        (RuleId.AXIOM, "axiom"),
    ],
)
def test_rule_family_table(rule, family):
    assert rule_family(rule) == family


def test_rule_name_round_trip():
    for r in RuleId:
        assert rule_from_string(r.value) is r
    with pytest.raises(ValueError):
        rule_from_string("and-l-star")


# ---------------------------------------------------------------------------
# prover output profiles


def test_disjunction_swap_uses_or_rules_on_both_sides():
    res = prove(parse_sequent("q | s |- s | q"), "i")
    assert isinstance(res, Proved)
    fams = {rule_family(r) for r in rule_usage(res.proof)}
    assert {"or-l", "or-r"} <= fams


def test_peirce_uses_both_implication_rules():
    res = prove(parse_sequent("|- ((q => s) => q) => q"), "c")
    assert isinstance(res, Proved)
    fams = {rule_family(r) for r in rule_usage(res.proof)}
    assert {"imp-r", "imp-l"} <= fams


def test_subproof_usage_is_monotone():
    res = prove(parse_sequent("q | s |- s | q"), "i")
    whole = rule_usage(res.proof)

    def walk(node):
        assert rule_usage(node) <= whole
        for p in node.premises:
            walk(p)

    walk(res.proof)


# ---------------------------------------------------------------------------
# class hierarchy on emitted proofs


def test_uniform_proofs_are_intuitionistic_and_classical():
    res = prove(parse_sequent("|- q & s => s & q"), "o")
    assert isinstance(res, Proved)
    assert res.proof_class == UNIFORM
    for cls in (UNIFORM, INTUITIONISTIC, CLASSICAL):
        assert check_proof(res.proof, cls, strengthened_axioms=True)


def test_restart_proofs_check_in_both_restart_classes():
    s = parse_sequent("q | s, q => t, s => t |- t")
    res = prove_restart(s)
    assert isinstance(res, Proved)
    assert res.proof_class.kind == "og"
    goal = res.proof_class.goal
    assert check_proof(res.proof, ProofClass("og", goal), strengthened_axioms=True)
    assert check_proof(res.proof, ProofClass("ig", goal), strengthened_axioms=True)


@given(st.integers(0, 10_000))
def test_random_provable_sequents_check_in_their_declared_class(seed):
    import random

    s = random_propositional_sequent(random.Random(seed))
    for mode in ("c", "i"):
        res = prove(s if mode == "c" else Sequent(s.ante, s.succ[:1]), mode)
        if isinstance(res, Proved):
            assert check_proof(res.proof, res.proof_class, strengthened_axioms=True)


# ---------------------------------------------------------------------------
# JSON round trip


def test_round_trip_plain_class():
    res = prove(parse_sequent("|- ((q => s) => q) => q"), "c")
    text = dump_proof(res.proof, res.proof_class)
    p, cls = load_proof(text)
    assert p == res.proof and cls == res.proof_class


def test_round_trip_restart_class_keeps_goal():
    res = prove_restart(parse_sequent("q | s, q => t, s => t |- t"))
    p, cls = load_proof(dump_proof(res.proof, res.proof_class))
    assert p == res.proof and cls == res.proof_class
    assert cls.goal == Atom("t")


def test_json_schema_keys():
    res = prove_restart(parse_sequent("q | s, q => t, s => t |- t"))
    data = json.loads(dump_proof(res.proof, res.proof_class))
    assert set(data) == {"format", "class", "goal", "ante", "succ", "nodes"}
    assert data["format"] == 3
    assert (data["ante"], data["succ"]) == (["q | s", "q => t", "s => t"], ["t"])
    for k, node in enumerate(data["nodes"]):
        assert "rule" in node
        assert set(node) <= {"rule", "principal", "witness", "eigen", "split", "premises"}
        # imp-l's split is kept when empty; every other empty field is left out
        assert all(v is not None and (v != [] or key == "split") for key, v in node.items())
        assert ("split" in node) == (node["rule"] == "imp-l")
        assert all(j < k for j in node.get("premises", []))
    root = data["nodes"][-1]
    assert {"rule", "principal", "premises"} <= set(root)
    assert any(node.get("split") == [] for node in data["nodes"])
    res = prove(parse_sequent("forall x. p(x) |- forall y. p(y)"), "c")
    data = json.loads(dump_proof(res.proof, res.proof_class))
    assert "goal" not in data
    keys = set().union(*data["nodes"])
    assert {"witness", "eigen"} <= keys


def test_load_rejects_unknown_rule():
    res = prove(parse_sequent("q |- q"), "c")
    data = json.loads(dump_proof(res.proof, res.proof_class))
    data["nodes"][-1]["rule"] = "axiom2"
    with pytest.raises(ValueError):
        load_proof(json.dumps(data))


def test_quantified_round_trip_keeps_witness_and_eigen():
    res = prove(parse_sequent("forall x. p(x) |- exists y. p(y)"), "c")
    assert isinstance(res, Proved)
    p, cls = load_proof(dump_proof(res.proof, res.proof_class))
    assert p == res.proof and cls == res.proof_class
    used = rule_usage(p)
    assert {rule_family(r) for r in used} & {"forall-l", "exists-r"}


def _proofs_of_every_class(text):
    """(proof, class) for each class the searches and starred expansion
    reach on the sequent."""
    s = parse_sequent(text)
    out = []
    for logic in "cio":
        res = prove(s, logic)
        if isinstance(res, Proved):
            out.append((res.proof, res.proof_class))
            if logic in "ci":
                out.append((expand_starred(res.proof), ProofClass(logic)))
    res = prove_restart(s)
    if isinstance(res, Proved):
        goal = res.proof_class.goal
        out += [(res.proof, ProofClass("og", goal)), (res.proof, ProofClass("ig", goal))]
    return out


def _members(node):
    return [format_formula(f) for f in node.conclusion.ante + node.conclusion.succ]


def test_round_trip_on_every_class_keeps_binder_names():
    # alpha-variant members compare equal, yet each root member keeps its
    # own binder name; a derived member takes the names of the root's text
    texts = (
        "forall x. p(x), forall y. p(y) |- (forall z. p(z)) & (forall w. p(w))",
        "exists x. p(x), exists y. p(y) |- (exists z. p(z)) & (exists w. p(w))",
        "q | s, q => t, s => t |- t",
    )
    kinds = set()
    for text in texts:
        for p, cls in _proofs_of_every_class(text):
            assert check_proof(p, cls), (text, cls)
            q, got = load_proof(dump_proof(p, cls))
            assert q == p and got == cls
            assert format_formula(got.goal or Q) == format_formula(cls.goal or Q)
            assert _members(q) == _members(p), (text, cls)
            kinds.add(cls.kind)
    assert kinds == {"c", "i", "o", "cstar", "istar", "ig", "og"}
    ante = parse_sequent(texts[0]).ante
    assert [format_formula(f) for f in ante] == ["forall x. p(x)", "forall y. p(y)"]


def test_proofs_differing_in_one_node_are_unequal():
    leaf = axiom([Q], [Q])
    p = Proof(RuleId.AND_R, Sequent((Q,), (And(Q, Q),)), (leaf, leaf), ("succ", 0))
    deep = Proof(RuleId.AND_R, p.conclusion, (leaf, axiom([Q], [Q, S])), ("succ", 0))
    assert p == Proof(RuleId.AND_R, p.conclusion, (axiom([Q], [Q]), leaf), ("succ", 0))
    for other in (deep, Proof(RuleId.AND_R, p.conclusion, (leaf,), ("succ", 0)), leaf):
        assert p != other and other != p
    assert p != "proof"


def test_dump_lists_a_shared_premise_once_per_use():
    leaf = axiom([Q], [Q])
    p = Proof(RuleId.AND_R, Sequent((Q,), (And(Q, Q),)), (leaf, leaf), ("succ", 0))
    assert check_proof(p, CLASSICAL)
    data = json.loads(dump_proof(p, CLASSICAL))
    assert (data["ante"], data["succ"]) == (["q"], ["q & q"])
    assert [n.get("premises") for n in data["nodes"]] == [None, None, [0, 1]]
    q, cls = load_proof(json.dumps(data))
    assert q == p and cls == CLASSICAL
    assert q.premises[0] is not q.premises[1]


def test_every_imp_l_split_round_trips():
    # the split names the succedent members that go to the first premise
    for picks in itertools.product((False, True), repeat=len(_DELTA)):
        delta1 = tuple(g for g, first in zip(_DELTA, picks) if first)
        theta = tuple(g for g, first in zip(_DELTA, picks) if not first)
        node = _imp_l([axiom([Q], delta1 + (Q,))], [axiom([Q, S], theta)])
        data = json.loads(dump_proof(node, CLASSICAL))
        (split,) = [n["split"] for n in data["nodes"] if n["rule"] == "imp-l"]
        assert Sequent((), [node.conclusion.succ[i] for i in split]) == Sequent((), delta1)
        assert load_proof(json.dumps(data)) == (node, CLASSICAL)


def test_the_700_conjunct_proof_dumps_small_and_loads_back_equal():
    # 2,098 nodes, most of whose conclusions hold hundreds of members
    conjuncts = " & ".join(f"p{k}" for k in range(700))
    res = prove(parse_sequent(f"{conjuncts} |- {conjuncts}"), "i")
    assert proof_size(res.proof) == 2_098
    text = dump_proof(res.proof, res.proof_class)
    assert len(text) < 200_000
    assert load_proof(text) == (res.proof, res.proof_class)


def test_hand_written_flat_document_loads():
    p, cls = load_proof(json.dumps(FLAT))
    assert cls == CLASSICAL
    assert check_proof(p, cls)
    assert p.conclusion == parse_sequent("q, s |- q & s")
    assert json.loads(dump_proof(p, cls)) == FLAT


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_load_rejects_malformed_flat_document(name):
    with pytest.raises(ValueError, match=re.escape(MALFORMED[name][1])):
        load_proof(json.dumps(malformed(name)))


@pytest.mark.parametrize(
    "text", ["[]", json.dumps([FLAT]), "2", '"proof"', "null"], ids=["empty-list", "list", "number", "string", "null"]
)
def test_load_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(ValueError) as err:
        load_proof(text)
    assert str(err.value) == "proof document must be a JSON object"


def test_load_rejects_deeply_nested_json():
    with pytest.raises(ValueError, match="proof document nests too deeply"):
        load_proof(DEEPLY_NESTED)


# ---------------------------------------------------------------------------
# the text memos of dump and load


@contextlib.contextmanager
def _cold_memos():
    """Run with both text memos empty, and empty them again after.  Their
    old entries are not put back: a print memo entry whose formula died
    meanwhile would be stale."""
    calculus._TEXTS.clear()
    calculus._PARSED.clear()
    try:
        yield
    finally:
        calculus._TEXTS.clear()
        calculus._PARSED.clear()


def _round_trips(proofs) -> list[tuple[str, list]]:
    """Each proof's document, under its class where it comes as a (proof,
    class) pair and under class c otherwise, and the members of every node
    of its loaded proof, as printed."""
    out = []
    for p in proofs:
        text = dump_proof(*(p if isinstance(p, tuple) else (p, CLASSICAL)))
        q, _ = load_proof(text)
        out.append((text, [_members(n) for n in proof_nodes(q)]))
    return out


def test_alpha_variants_keep_their_binder_names_through_the_text_memos():
    fx, fy = parse_formula("forall x. p(x)"), parse_formula("forall y. p(y)")
    assert fx == fy and fx is not fy
    # both in one document, then each alone in a document of its own
    proofs = [axiom([fx, fy], [fy]), axiom([fx], [fx]), axiom([fy], [fy])]
    x, y = "forall x. p(x)", "forall y. p(y)"
    want = [[[x, y, y]], [[x, x]], [[y, y]]]
    for order, expected in ((proofs, want), (proofs[::-1], want[::-1])):
        with _cold_memos():
            cold = _round_trips(order)
            warm = _round_trips(order)
        assert cold == warm
        assert [members for _, members in cold] == expected
    assert json.loads(_round_trips(proofs[:1])[0][0])["ante"] == [x, y]


def _chains(n: int, width: int) -> list[Proof]:
    """n axioms over width atoms each, every atom distinct, and one member
    all of them share."""
    atoms = [Atom(f"p{k}") for k in range(n * width)]
    return [axiom([Q] + atoms[k * width : (k + 1) * width], [Q]) for k in range(n)]


def test_the_text_memos_hold_at_most_the_cap_and_change_no_document():
    proofs = _chains(1_100, 4)
    assert 4 * len(proofs) > _MEMO_CAP
    sizes = []
    with _cold_memos():
        for p in proofs:
            _round_trips([p])
            sizes.append((len(calculus._TEXTS), len(calculus._PARSED)))
        warm = _round_trips(proofs)
    assert max(max(pair) for pair in sizes) <= _MEMO_CAP
    # each memo filled up and was emptied
    for n in (0, 1):
        assert any(b[n] < a[n] for a, b in zip(sizes, sizes[1:]))
    cold = []
    for p in proofs:
        with _cold_memos():
            cold += _round_trips([p])
    assert warm == cold


def test_threads_dumping_and_loading_at_once_get_the_single_thread_documents():
    fx, fy = parse_formula("forall x. p(x)"), parse_formula("forall y. p(y)")
    proofs = _chains(300, 3) + [axiom([fx, fy], [fy]), axiom([fy], [fy]), axiom([fx], [fx])]
    proofs += [pair for text in ("|- ((q => s) => q) => q", "q | s, q => t, s => t |- t")
               for pair in _proofs_of_every_class(text)]
    with _cold_memos():
        want = _round_trips(proofs)
    # cap 5 empties the memos all the time, under every thread at once
    for cap in (_MEMO_CAP, 5):
        start = threading.Barrier(8, timeout=60)

        def run(k):
            # each thread starts at its own place in the list, then puts
            # its results back in list order; with the largest memo size
            # it saw after each document
            start.wait()
            mine, largest = [], 0
            for p in proofs[k:] + proofs[:k]:
                mine += _round_trips([p])
                largest = max(largest, len(calculus._TEXTS), len(calculus._PARSED))
            return mine[len(proofs) - k :] + mine[: len(proofs) - k], largest

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cold_memos(), mock.patch("seqcalc.syntax._MEMO_CAP", cap):
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(run, range(8), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert all(docs == want and largest <= cap for docs, largest in got)


def test_the_print_memo_keeps_no_formula_alive():
    p = axiom([Atom("fleeting", (Const("a"),))], [Q])
    dump_proof(p, CLASSICAL)
    f = weakref.ref(p.conclusion.ante[0])
    assert calculus._TEXTS[id(f())].text == "fleeting(a)"
    key = id(f())
    # the ring of recent nodes holds the atom too; emptied, only the memo
    # could keep it alive
    syntax._RECENT.clear()
    del p
    gc.collect()
    assert f() is None and key not in calculus._TEXTS


def test_a_bad_table_text_raises_the_same_parse_error_every_time():
    doc = copy.deepcopy(FLAT)
    doc["succ"][0] = "q & "
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            load_proof(json.dumps(doc))
        errors.append((str(info.value), info.value.span))
    assert errors[0] == errors[1]
    assert "q & " not in calculus._PARSED


# ---------------------------------------------------------------------------
# slotted proof objects


def _slotted_samples():
    """A searched proof, its outcome and class, a restart class and the two
    outcomes without fields."""
    res = prove(parse_sequent("forall x. p(x) |- exists y. p(y)"), "c")
    assert isinstance(res, Proved)
    return [res.proof, res, res.proof_class, restart_class(Q), Refuted(), NotProvedWithinLimits()]


def test_proof_objects_have_no_dict_and_refuse_assignment():
    for obj in _slotted_samples():
        assert not hasattr(obj, "__dict__"), type(obj)
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
        # no attribute can be added either (the frozen __setattr__ of a
        # slotted dataclass raises TypeError for a name that is not a field)
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = None


def test_proof_objects_survive_replace_pickle_and_copy():
    for obj in _slotted_samples():
        for back in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)
    p = _slotted_samples()[0]
    for back in (dataclasses.replace(p), pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert [n.principal for n in proof_nodes(back)] == [n.principal for n in proof_nodes(p)]
        assert all(a.principal is b.principal for a, b in zip(proof_nodes(back), proof_nodes(p)))


def test_a_principal_position_is_one_object_across_search_transforms_and_loading():
    proofs = []
    for text in (
        "forall x. p(x), forall y. p(y) |- (forall z. p(z)) & (forall w. p(w))",
        "q | s, q => t, s => t |- t",
        "|- ((q => s) => q) => q",
    ):
        for p, cls in _proofs_of_every_class(text):
            proofs += [p, load_proof(dump_proof(p, cls))[0], weaken(p, extra_ante=(T,))]
            if cls.kind == "cstar":
                try:
                    proofs.append(extract_intuitionistic(expand_starred(p)))
                except TransformError:
                    pass
    shared: dict = {}
    for p in proofs:
        for node in proof_nodes(p):
            if node.principal is not None:
                assert shared.setdefault(node.principal, node.principal) is node.principal
    assert len(shared) > 4
    # a pair built at run time is swapped for the shared one; a position
    # past the table is kept as given
    s = parse_sequent("q & s |- q")
    built = Proof(RuleId.AND_L_LEFT, s, (axiom([Q, S], [Q]),), tuple(["ante", int("0")]))
    assert built.principal is Proof(RuleId.AND_L_LEFT, s, built.premises, ("ante", 0)).principal
    far = ("ante", 64)
    assert Proof(RuleId.AND_L_LEFT, s, built.premises, far).principal is far
