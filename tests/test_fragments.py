"""Grammar membership vs a brute-force enumeration, and profile conditions."""

import pytest

from seqcalc.fragments import (
    FragmentId,
    ReductionKind,
    Role,
    classify,
    fragment_guarantee,
    guarantee_for,
    implies_intuitionistic,
    reduction_conditions,
)
from seqcalc.parser import parse_formula, parse_sequent
from seqcalc.syntax import And, Atom, Bot, Imp, Top, Var, is_quantifier_free

from _oracles import FRAGMENT_ROLES, formula_universe, grammar_members

LEAVES = (Atom("q"), Atom("p", (Var("x"),)), Top())


def _flat_roles():
    return [(frag, role) for frag, roles in FRAGMENT_ROLES.items() for role in roles]


# ---------------------------------------------------------------------------
# agreement with the enumeration oracle


@pytest.mark.parametrize("frag,role", _flat_roles())
def test_classify_matches_enumeration_to_three_connectives(frag, role):
    members = grammar_members(frag, 3, LEAVES)[role]
    for f in formula_universe(3, LEAVES):
        assert classify(f, frag, role) == (f in members), f


def test_classify_matches_enumeration_to_four_connectives():
    # exhaustive at the next size up, over a two-leaf alphabet to keep the
    # universe tractable (~80k formulas, ~1M membership checks)
    leaves = (Atom("q"), Atom("p", (Var("x"),)))
    universe = formula_universe(4, leaves)
    for frag, roles in FRAGMENT_ROLES.items():
        members = grammar_members(frag, 4, leaves)
        for role in roles:
            want = members[role]
            for f in universe:
                assert classify(f, frag, role) == (f in want), (frag, role, f)


def test_units_and_bot_are_leaves_everywhere():
    for frag, role in _flat_roles():
        assert classify(Top(), frag, role)
        assert classify(Bot(), frag, role)
        assert classify(Atom("q"), frag, role)


# ---------------------------------------------------------------------------
# membership vectors


def test_implication_clause_in_f1():
    assert classify(parse_formula("p(a) => q"), "f1", "clause")


def test_clause_disjunction_separates_f1_from_f2():
    f = parse_formula("forall x. p(x) | q")
    assert not classify(f, "f1", "clause")
    assert classify(f, "f2", "clause")


def test_classical_lp_goal_bans_implication_under_exists():
    f = parse_formula("exists x. (p(x) => q)")
    assert not classify(f, "lp-cls", "goal")


def test_goal_implication_separates_f4_from_f1():
    f = parse_formula("q => s")
    assert classify(f, "f4", "goal")
    assert not classify(f, "f1", "goal")


def test_role_must_exist_for_fragment():
    with pytest.raises(ValueError):
        classify(Atom("q"), "f1", "base-goal")
    assert classify(Atom("q"), "lp-cls", "base-goal")


def test_enum_and_string_arguments_agree():
    f = parse_formula("q => s")
    assert classify(f, FragmentId.F4, Role.GOAL) == classify(f, "f4", "goal")


def test_lp_cls_goal_implications_take_clause_antecedents():
    # a goal implication loads a program clause, so its left side is a
    # clause: positive implications fine, disjunctions and nested
    # negative implications not
    assert classify(parse_formula("q => s => t"), "lp-cls", "goal")
    assert classify(parse_formula("(q => s) => t"), "lp-cls", "goal")
    assert not classify(parse_formula("(q | s) => t"), "lp-cls", "goal")
    assert not classify(parse_formula("((q => s) => t) => u"), "lp-cls", "goal")


def _chain(kind: str, depth: int):
    """q under depth connectives: q & (q & ...), ~~...q or q => (q => ...)."""
    q = f = Atom("q")
    for _ in range(depth):
        f = And(q, f) if kind == "&" else Imp(f, Bot()) if kind == "~" else Imp(q, f)
    return f


@pytest.mark.parametrize("kind", ["&", "~", "=>"])
def test_deep_chains_classify_as_their_three_deep_prefix(kind):
    # membership is decided bottom-up on an explicit stack, so 2,000 deep
    # costs no recursion; the enumeration decides the 3-deep chain
    shallow, deep = _chain(kind, 3), _chain(kind, 2_000)
    verdicts = []
    for frag, roles in FRAGMENT_ROLES.items():
        members = grammar_members(frag, 3, (Atom("q"), Bot()))
        for role in roles:
            want = shallow in members[role]
            assert classify(shallow, frag, role) == want, (frag, role)
            assert classify(deep, frag, role) == want, (frag, role)
            verdicts.append(want)
    # every role admits the & chain; the others split the roles
    assert all(verdicts) if kind == "&" else any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# cross-fragment relations


def test_goal_grammar_inclusions():
    f1 = grammar_members("f1", 3, LEAVES)
    f2 = grammar_members("f2", 3, LEAVES)
    f3 = grammar_members("f3", 3, LEAVES)
    assert f1["goal"] == f3["goal"]  # identical productions
    assert f2["goal"] < f1["goal"]  # drops the universal production


def test_propositional_members_grow_with_the_fragment_index():
    # with quantifiers out of the picture the later clause grammars only add
    # productions, and the goal grammars coincide
    f1 = grammar_members("f1", 3, LEAVES)
    for f in formula_universe(3, LEAVES):
        if not is_quantifier_free(f):
            continue
        if f in f1["clause"]:
            assert classify(f, "f2", "clause")
            assert classify(f, "f3", "clause")
        if f in f1["goal"]:
            assert classify(f, "f2", "goal")
            assert classify(f, "f3", "goal")


def test_clause_grammars_are_pairwise_incomparable():
    # each of the first three trades a production for another: universals in
    # clause spines, disjunctive clauses, universals inside embedded goals
    spine_forall = parse_formula("forall x. p(x)")
    assert classify(spine_forall, "f1", "clause")
    assert not classify(spine_forall, "f3", "clause")

    disjunctive = parse_formula("q | s")
    assert classify(disjunctive, "f2", "clause")
    assert not classify(disjunctive, "f1", "clause")

    embedded_forall = parse_formula("(forall x. p(x)) => q")
    assert classify(embedded_forall, "f1", "clause")
    assert not classify(embedded_forall, "f2", "clause")


# ---------------------------------------------------------------------------
# sequent-level guarantees


def test_guarantee_requires_all_members_in_grammar():
    # classically provable, intuitionistically not: necessarily outside
    # every guaranteed fragment (each side fails a different grammar)
    s = parse_sequent("forall x. p(x) | q |- (forall x. p(x)) | q")
    for frag in ("f1", "f2", "f3", "f4"):
        assert not fragment_guarantee(s, frag)
    # the antecedent alone is fine in a disjunction-tolerant fragment
    assert fragment_guarantee(parse_sequent("forall x. p(x) | q |- q"), "f2")


def test_trivial_goal_passes_everywhere():
    s = parse_sequent("|- top")
    for frag in FragmentId:
        assert fragment_guarantee(s, frag)


def test_horn_program_is_f1():
    assert fragment_guarantee(parse_sequent("forall x. (p(x) => q), p(a) |- q"), "f1")


def test_guarantee_needs_singleton_succedent():
    with pytest.raises(ValueError):
        fragment_guarantee(parse_sequent("|- q, s"), "f1")
    with pytest.raises(ValueError):
        fragment_guarantee(parse_sequent("q |-"), "f1")


# ---------------------------------------------------------------------------
# profile conditions


def test_empty_profile_satisfies_every_stage():
    for stage in ("intuitionistic", "augmented", "uniform", "restart"):
        assert reduction_conditions(frozenset(), stage) == 1


@pytest.mark.parametrize(
    "profile,ordinal",
    [
        (set(), 1),
        ({"imp-l", "exists-r", "forall-r"}, 1),
        ({"or-l"}, 2),
        ({"or-l", "forall-r"}, 3),
        ({"imp-r"}, 4),
        ({"imp-r", "imp-l"}, None),
        ({"or-l", "forall-r", "forall-l", "or-r"}, None),
    ],
)
def test_intuitionistic_stage_table(profile, ordinal):
    assert reduction_conditions(frozenset(profile), "intuitionistic") == ordinal


@pytest.mark.parametrize(
    "profile,ordinal",
    [
        ({"imp-r", "imp-l"}, 1),
        ({"forall-r", "imp-l"}, 2),
        ({"forall-r", "or-l", "forall-l", "exists-r"}, None),
    ],
)
def test_augmented_stage_table(profile, ordinal):
    assert reduction_conditions(frozenset(profile), "augmented") == ordinal


@pytest.mark.parametrize(
    "profile,ordinal",
    [
        ({"or-l", "and-r"}, 1),
        ({"or-l", "or-r"}, None),
        ({"or-l", "exists-r"}, None),
        ({"exists-l", "exists-r"}, None),
        ({"or-r", "exists-r", "exists-l"}, None),
        ({"or-r", "exists-r"}, 1),
    ],
)
def test_uniform_stage_table(profile, ordinal):
    assert reduction_conditions(frozenset(profile), "uniform") == ordinal


@pytest.mark.parametrize(
    "profile,ordinal",
    [
        ({"or-l", "or-r", "exists-l"}, 1),
        ({"forall-r", "or-r", "exists-l"}, 2),
        ({"forall-r", "or-r", "or-l"}, 3),
        ({"forall-r", "or-r", "or-l", "imp-r"}, None),
        ({"forall-r", "exists-r", "or-l"}, 3),
        ({"forall-r", "exists-r", "exists-l", "forall-l"}, None),
    ],
)
def test_restart_stage_table(profile, ordinal):
    assert reduction_conditions(frozenset(profile), "restart") == ordinal


def test_axiom_family_never_counts_against_a_condition():
    assert reduction_conditions(frozenset({"axiom"}), "intuitionistic") == 1


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        reduction_conditions(frozenset(), "classical")


@pytest.mark.parametrize(
    "profile,kind",
    [
        (set(), ReductionKind.SOME_GOAL),
        ({"imp-l", "exists-r"}, ReductionKind.SOME_GOAL),
        ({"or-l"}, ReductionKind.GOAL_DISJUNCTION),
        ({"or-l", "forall-r"}, ReductionKind.GOAL_DISJUNCTION),
        ({"imp-r"}, ReductionKind.SAME_SEQUENT),
        ({"imp-r", "imp-l"}, None),
    ],
)
def test_implies_intuitionistic_kinds(profile, kind):
    assert implies_intuitionistic(frozenset(profile)) == kind


# ---------------------------------------------------------------------------
# guarantee records


def test_guarantee_table_covers_every_fragment():
    for frag in FragmentId:
        g = guarantee_for(frag)
        assert g.fragment is frag


@pytest.mark.parametrize(
    "frag,avoided,stage,kind",
    [
        ("f1", {"imp-r", "or-l"}, "intuitionistic", ReductionKind.SOME_GOAL),
        ("f2", {"imp-r", "forall-r"}, "intuitionistic", ReductionKind.GOAL_DISJUNCTION),
        ("f3", {"imp-r", "forall-l"}, "intuitionistic", ReductionKind.GOAL_DISJUNCTION),
        ("f4", {"imp-l", "or-r", "exists-r"}, "intuitionistic", ReductionKind.SAME_SEQUENT),
        ("lp-int", {"or-l", "exists-l"}, "uniform", None),
        ("lp-cls", set(), "restart", None),
    ],
)
def test_guarantee_record_fields(frag, avoided, stage, kind):
    g = guarantee_for(frag)
    assert g.avoided_rules == frozenset(avoided)
    assert g.stage == stage
    assert g.kind == kind


def test_avoided_rules_satisfy_the_promised_condition():
    # the point of each record: a profile avoiding those families passes the
    # named stage, whatever else it contains
    everything = frozenset(
        {"and-l", "or-l", "and-r", "or-r", "imp-l", "imp-r", "forall-l", "exists-r", "exists-l", "forall-r", "contr-l", "contr-r", "bot-r"}
    )
    for frag in ("f1", "f2", "f3", "f4"):
        g = guarantee_for(frag)
        profile = everything - g.avoided_rules
        ordinal = reduction_conditions(profile, g.stage)
        assert ordinal is not None
        assert implies_intuitionistic(profile) == g.kind


# ---------------------------------------------------------------------------
# corpus-level consequence


def test_corpus_guarantee_rows_reduce_classical_to_intuitionistic(corpus):
    checked = 0
    for entry in corpus:
        if len(entry.sequent.succ) != 1:
            continue
        for frag in ("f1", "f2", "f3", "f4"):
            if fragment_guarantee(entry.sequent, frag) and entry.classical:
                assert entry.intuitionistic, entry.name
                checked += 1
    assert checked  # the corpus must exercise this at least once
