"""Proof rewrites: weakening, contraction removal, star expansion, extraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc.calculus import (
    CLASSICAL,
    CLASSICAL_STAR,
    INTUITIONISTIC,
    INTUITIONISTIC_STAR,
    INVERTIBLE,
    Proof,
    ProofClass,
    RuleId,
    check_proof,
    drive,
    dump_proof,
    premises,
    proof_height,
    proof_nodes,
    proof_size,
    rule_family,
    rule_usage,
)
from seqcalc.fragments import FORBIDDEN_FAMILIES
from seqcalc.parser import parse_formula, parse_sequent
from seqcalc.search import Proved, SearchLimits, prove, prove_restart
from seqcalc.syntax import And, Atom, Bot, Const, Forall, Imp, Or, Sequent, Top, free_symbols, neg
from seqcalc.transform import (
    TransformError,
    augment,
    eliminate_contractions,
    expand_starred,
    extract_intuitionistic,
    identity_proof,
    weaken,
)
from seqcalc.transform import _extract_some_goal, _freshen_eigens, _invert_once, _rebind_eigen, _starify

from _oracles import (
    decorate_with_contractions,
    random_fragment_sequent,
    random_horn_sequent,
    random_propositional_sequent,
    random_quantified_sequent,
    reference_eliminate_contractions,
    reference_expand_starred,
    reference_extract_intuitionistic,
    reference_extract_some_goal,
    reference_freshen_eigens,
    reference_identity_proof,
    reference_rebind_eigen,
    reference_starify,
    reference_weaken,
)

Q, S, T = Atom("q"), Atom("s"), Atom("t")


def axiom(ante, succ):
    return Proof(RuleId.AXIOM, Sequent(tuple(ante), tuple(succ)))


def axiom_of(s: Sequent) -> Proof:
    return Proof(RuleId.AXIOM, s)


def proved(text, logic="c"):
    res = prove(parse_sequent(text), logic)
    assert isinstance(res, Proved), text
    return res


# ---------------------------------------------------------------------------
# weaken


def test_weaken_an_axiom():
    w = weaken(axiom([Q], [Q]), extra_ante=(Atom("p", (Const("a"),)),))
    assert w.rule is RuleId.AXIOM
    assert w.conclusion == parse_sequent("q, p(a) |- q")
    assert proof_height(w) == 1


def test_weaken_with_nothing_is_identity():
    p = axiom([Q], [Q])
    assert weaken(p) is p


def test_weaken_keeps_height_on_a_branching_proof():
    tt = And(Top(), Top())
    p = Proof(
        RuleId.AND_R,
        Sequent((), (tt,)),
        (axiom([], [Top()]), axiom([], [Top()])),
        principal=("succ", 0),
    )
    assert check_proof(p, CLASSICAL_STAR) and proof_height(p) == 2
    w = weaken(p, extra_succ=(Bot(),))
    assert proof_height(w) == 2
    assert w.conclusion == Sequent((), (tt, Bot()))
    assert check_proof(w, CLASSICAL_STAR)


def test_weaken_widens_every_sequent():
    res = proved("q & s |- s & q")
    w = weaken(res.proof, extra_ante=(T,), extra_succ=(Bot(),))
    assert check_proof(w, CLASSICAL_STAR)
    assert proof_height(w) <= proof_height(res.proof)

    def walk(n):
        assert T in n.conclusion.ante
        assert Bot() in n.conclusion.succ
        for q in n.premises:
            walk(q)

    walk(w)


def test_weaken_renames_clashing_eigenvariables():
    res = proved("|- forall x. (p(x) => p(x))")
    eigens = set()

    def collect(n):
        if n.eigen:
            eigens.add(n.eigen)
        for q in n.premises:
            collect(q)

    collect(res.proof)
    clash = Atom("p", (Const(next(iter(eigens))),))
    w = weaken(res.proof, extra_ante=(clash,))
    assert check_proof(w, CLASSICAL_STAR)
    assert clash in w.conclusion.ante


def test_weaken_succedent_rejected_on_intuitionistic_implication_nodes():
    res = proved("q => s, q |- s", "i")
    with pytest.raises(TransformError):
        weaken(res.proof, extra_succ=(T,))
    w = weaken(res.proof, extra_ante=(T,))  # antecedent side is fine
    assert check_proof(w, ProofClass("istar"))


@pytest.mark.parametrize("text", ["q | s, q => t, s => t |- t", "|- q | (q => bot)"])
def test_weaken_succedent_rejected_on_restart_rule_nodes(text):
    # the first proof has an or-l-restart node, the second a restart node
    res = prove_restart(parse_sequent(text))
    assert isinstance(res, Proved)
    with pytest.raises(TransformError, match="^cannot weaken the succedent of a restart-rule node$"):
        weaken(res.proof, extra_succ=(T,))
    assert check_proof(weaken(res.proof, extra_ante=(T,)), res.proof_class)


# ---------------------------------------------------------------------------
# identity proofs


def _assert_identity_proof_is_the_reference(f):
    p = identity_proof(f)
    assert p.conclusion == Sequent((f,), (f,))
    assert dump_proof(p, CLASSICAL_STAR) == dump_proof(reference_identity_proof(f), CLASSICAL_STAR)
    assert check_proof(p, CLASSICAL_STAR)  # standard axioms suffice


@pytest.mark.parametrize(
    "text",
    [
        "q",
        "q & s",
        "q | s",
        "q => s",
        "forall x. p(x)",
        "exists x. (p(x) & q)",
        "top",
        "bot",
        # repeated and alpha-variant parts: each leaf keeps the part it was built from
        "(forall x. p(x)) & (forall y. p(y))",
        "(forall x. p(x)) | (forall y. p(y))",
        "(forall x. p(x)) => (forall y. p(y))",
        "(exists x. p(x)) & (exists y. p(y))",
        "p & p",
        "p => p",
        "forall c. (p(c) & exists c0. q(c0, c))",
        "~~~p",
    ],
)
def test_identity_proof_closes_on_plain_axioms(text):
    _assert_identity_proof_is_the_reference(parse_formula(text))


@given(st.integers(0, 5_000))
def test_identity_proof_matches_reference_on_drawn_members(seed):
    rng = random.Random(seed)
    fragment = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls")[seed % 6]
    drawn = (
        random_quantified_sequent(rng),
        random_fragment_sequent(rng, fragment, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)),
        random_propositional_sequent(rng, 6),
    )
    for s in drawn:
        for f in s.ante + s.succ:
            _assert_identity_proof_is_the_reference(f)


def _negations(n: int):
    f = Atom("p")
    for _ in range(n):
        f = neg(f)
    return f


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
def test_identity_proof_of_nested_negations_has_three_nodes_per_level(n):
    # imp-r over imp-l* per negation, whose bottom premise is an axiom
    f = _negations(n)
    p = identity_proof(f)
    assert proof_size(p) == 3 * n + 1
    assert check_proof(p, CLASSICAL_STAR)


def test_identity_proof_of_a_2000_deep_negation_replays():
    # built on drive's explicit stack, at the default recursion limit
    f = _negations(2_000)
    p = identity_proof(f)
    assert p.conclusion == Sequent((f,), (f,))
    assert proof_size(p) == 6_001
    assert check_proof(p, CLASSICAL_STAR)


@pytest.fixture
def alpha_variant_axiom():
    # a strengthened axiom whose succedent holds an alpha-variant of the
    # compound formula it shares with the antecedent
    s = parse_sequent("forall x. p(x), q |- forall y. p(y)")
    g, h = s.ante[-1], s.succ[0]
    assert isinstance(g, Forall) and g == h and g is not h
    res = prove(s, "c", SearchLimits(strengthened_axioms=True))
    assert isinstance(res, Proved) and res.proof.rule is RuleId.AXIOM
    return res.proof


def test_eta_expansion_recloses_an_alpha_variant_axiom_under_contraction(alpha_variant_axiom):
    p = alpha_variant_axiom
    s = p.conclusion
    doubled = weaken(p, (Q,))
    root = Proof(RuleId.CONTR_L, s, (doubled,), ("ante", s.ante.index(Q)))
    out = eliminate_contractions(root)
    assert out.conclusion == s
    assert RuleId.FORALL_R in rule_usage(out)
    assert check_proof(out, CLASSICAL_STAR)


def test_eta_expansion_recloses_an_alpha_variant_axiom_under_inversion(alpha_variant_axiom):
    p = alpha_variant_axiom
    s = p.conclusion
    out = _invert_once(p, "succ", s.succ[0], eigen="e")
    assert out.conclusion == parse_sequent("forall x. p(x), q |- p(e)")
    assert check_proof(out, CLASSICAL_STAR)


# ---------------------------------------------------------------------------
# eliminate_contractions


def test_contraction_free_input_is_returned_as_is():
    res = proved("q & s |- s & q")
    assert eliminate_contractions(res.proof) is res.proof


def test_single_contraction_over_an_axiom():
    p = Proof(
        RuleId.CONTR_L,
        Sequent((Q,), (Q,)),
        (axiom([Q, Q], [Q]),),
        principal=("ante", 0),
    )
    out = eliminate_contractions(p)
    assert out.rule is RuleId.AXIOM
    assert out.conclusion == Sequent((Q,), (Q,))


def test_hand_built_contraction_r():
    # five nodes, one contr-R in the middle
    goal = Or(Q, S)
    leaf = axiom([Q, T], [Q, S, Q, S])
    or2 = Proof(RuleId.OR_R_STAR, Sequent((Q, T), (Q, S, goal)), (leaf,), principal=("succ", 2))
    or1 = Proof(RuleId.OR_R_STAR, Sequent((Q, T), (goal, goal)), (or2,), principal=("succ", 0))
    contr = Proof(RuleId.CONTR_R, Sequent((Q, T), (goal,)), (or1,), principal=("succ", 0))
    root = Proof(
        RuleId.AND_L_STAR,
        Sequent((And(Q, T),), (goal,)),
        (contr,),
        principal=("ante", 0),
    )
    assert proof_size(root) == 5
    out = eliminate_contractions(root)
    assert check_proof(out, CLASSICAL_STAR)
    assert out.conclusion == root.conclusion
    assert RuleId.CONTR_R not in rule_usage(out)
    assert RuleId.CONTR_L not in rule_usage(out)


P, IMP = Atom("p"), Imp(Atom("p"), Atom("p"))


def test_contracting_an_implication_inverts_an_imp_l_star_int_on_its_other_copy():
    # contr-l on p => p over an imp-l*-int on one copy, whose second premise
    # applies imp-l*-int to the other: inverting that copy of p => p takes
    # the upper node's second premise
    s = Sequent((P, IMP), (P,))
    (doubled,) = premises(RuleId.CONTR_L, s, 1, IMP)
    goal, rest = premises(RuleId.IMP_L_STAR_INT, doubled, 1, IMP)
    j = rest.ante.index(IMP)
    leaves = tuple(map(axiom_of, premises(RuleId.IMP_L_STAR_INT, rest, j, IMP)))
    upper = Proof(RuleId.IMP_L_STAR_INT, rest, leaves, ("ante", j))
    lower = Proof(RuleId.IMP_L_STAR_INT, doubled, (axiom_of(goal), upper), ("ante", 1))
    assert check_proof(lower, INTUITIONISTIC_STAR)
    out = eliminate_contractions(Proof(RuleId.CONTR_L, s, (lower,), ("ante", 1)))
    assert out.conclusion == s and check_proof(out, INTUITIONISTIC_STAR)
    assert out.rule is RuleId.IMP_L_STAR_INT and proof_size(out) == 3


def test_contracting_a_conjunction_inverts_bot_r_on_its_other_copy():
    # contr-r on q & r over an and-r on one copy, each premise closed by
    # bot-r on the other: inversion rebuilds each bot-r on a part
    f = And(Q, Atom("r"))
    s = Sequent((Q, Atom("r")), (f,))
    (doubled,) = premises(RuleId.CONTR_R, s, 0, f)

    def bottom(t):
        i = t.succ.index(f)
        return Proof(RuleId.BOT_R, t, tuple(map(axiom_of, premises(RuleId.BOT_R, t, i, f))), ("succ", i))

    split = Proof(RuleId.AND_R, doubled, tuple(map(bottom, premises(RuleId.AND_R, doubled, 0, f))), ("succ", 0))
    assert check_proof(split, CLASSICAL_STAR)
    out = eliminate_contractions(Proof(RuleId.CONTR_R, s, (split,), ("succ", 0)))
    assert out.conclusion == s and check_proof(out, CLASSICAL_STAR)


def test_a_principal_without_its_rules_connective_is_a_transform_error():
    # imp-l*-int whose principal is the atom p: elimination used to fail
    # with an AttributeError on the atom's missing left part
    leaves = (axiom([P, P, IMP], [P]), axiom([P, P, P], [P]))
    node = Proof(RuleId.IMP_L_STAR_INT, Sequent((P, P, IMP), (P,)), leaves, ("ante", 0))
    root = Proof(RuleId.CONTR_L, Sequent((P, IMP), (P,)), (node,), ("ante", 0))
    with pytest.raises(TransformError, match=r"^principal p of imp-l\*-int must be an implication$"):
        eliminate_contractions(root)


def test_contraction_elimination_closes_on_standard_axioms(corpus_by_name):
    # the succedent forall is shared with the antecedent next to a bottom, so
    # removing the contraction meets a leaf that only a strengthened axiom or
    # a bottom-right step closes; the result must use the latter
    res = prove(corpus_by_name["aug-exists-self"].sequent, "c")
    assert isinstance(res, Proved)
    s = res.proof.conclusion
    i = next(k for k, f in enumerate(s.succ) if isinstance(f, Forall))
    dirty = Proof(RuleId.CONTR_R, s, (weaken(res.proof, extra_succ=(s.succ[i],)),), ("succ", i))
    out = eliminate_contractions(dirty)
    assert out.conclusion == s
    assert check_proof(out, CLASSICAL_STAR)


def test_contraction_elimination_names_the_plain_rule_that_drops_a_copy(corpus_by_name):
    # expansion turns the and-l* step into contr-l over and-l-left/right,
    # and and-l-left consumes one of the two copies the contraction joins
    res = prove(corpus_by_name["and-proj"].sequent, "c")
    assert isinstance(res, Proved)
    with pytest.raises(TransformError) as err:
        eliminate_contractions(expand_starred(res.proof))
    assert str(err.value) == (
        "contraction elimination expects starred-calculus proofs: "
        "and-l-left drops a copy of p & q that it treats as context"
    )


@given(st.integers(0, 5_000))
def test_decorated_proofs_clean_up(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    res = prove(s, "c")
    if not isinstance(res, Proved):
        return
    dirty = decorate_with_contractions(rng, res.proof, rng.randint(1, 3))
    out = eliminate_contractions(dirty)
    assert not rule_usage(out) & {RuleId.CONTR_L, RuleId.CONTR_R}
    assert out.conclusion == res.proof.conclusion
    assert check_proof(out, CLASSICAL_STAR)


# ---------------------------------------------------------------------------
# expand_starred


def test_expansion_of_a_conjunction_left_star():
    res = proved("q & s |- s & q")
    assert RuleId.AND_L_STAR in rule_usage(res.proof)
    out = expand_starred(res.proof)
    assert check_proof(out, CLASSICAL)
    assert out.conclusion == res.proof.conclusion
    used = rule_usage(out)
    assert RuleId.CONTR_L in used
    assert used & {RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT}


def test_expansion_keeps_plain_proofs_unchanged():
    p = axiom([Q], [Q])
    assert expand_starred(p) is p


def test_expansion_of_universal_left_star():
    res = proved("forall x. p(x) |- p(a) & p(b)")
    assert RuleId.FORALL_L_STAR in rule_usage(res.proof)
    out = expand_starred(res.proof)
    assert check_proof(out, CLASSICAL)
    assert RuleId.FORALL_L in rule_usage(out)


def test_expansion_preserves_succedent_cardinality():
    res = proved("q | s |- s | q", "i")
    out = expand_starred(res.proof)
    assert check_proof(out, INTUITIONISTIC)
    assert out.conclusion == res.proof.conclusion


@given(st.integers(0, 5_000))
def test_expanded_classical_proofs_check_plain(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    res = prove(s, "c")
    if isinstance(res, Proved):
        out = expand_starred(res.proof)
        assert check_proof(out, CLASSICAL)
        assert out.conclusion == res.proof.conclusion


# ---------------------------------------------------------------------------
# extract_intuitionistic


def test_extraction_from_a_bare_axiom_picks_a_shared_goal():
    pa = Atom("p", (Const("a"),))
    p = axiom([pa], [Q, pa])
    out = extract_intuitionistic(p)
    assert out.conclusion == Sequent((pa,), (pa,))
    assert check_proof(out, INTUITIONISTIC)


def test_extraction_from_a_horn_proof():
    s = parse_sequent("forall x. (p(x) => q), p(a) |- q")
    res = prove(s, "c")
    out = extract_intuitionistic(res.proof)
    assert out.conclusion == s
    assert check_proof(out, INTUITIONISTIC)


def test_extraction_accepts_prover_output_directly():
    # starred rules are expanded internally before the profile test
    res = proved("q & s |- s")
    out = extract_intuitionistic(res.proof)
    assert check_proof(out, INTUITIONISTIC)
    assert out.conclusion == res.proof.conclusion


def test_extraction_goal_comes_from_the_original_succedent():
    s = parse_sequent("q & s |- t, s")
    res = prove(s, "c")
    out = extract_intuitionistic(res.proof)
    assert out.conclusion.ante == s.ante
    assert len(out.conclusion.succ) == 1
    assert out.conclusion.succ[0] in s.succ
    assert check_proof(out, INTUITIONISTIC)


def test_extraction_keeps_the_first_premise_that_proves_another_goal():
    # both premises of the and-r step prove the other member t; the first
    # is an axiom, the second takes an and-l-right step first
    s = parse_sequent("t, s & t |- q & s, t")
    upper = parse_sequent("t, s & t |- s, t")
    second = Proof(
        RuleId.AND_L_RIGHT,
        upper,
        (axiom([T, T], [S, T]),),
        principal=("ante", upper.ante.index(parse_formula("s & t"))),
    )
    p = Proof(
        RuleId.AND_R,
        s,
        (axiom(s.ante, [Q, T]), second),
        principal=("succ", s.succ.index(parse_formula("q & s"))),
    )
    assert check_proof(p, CLASSICAL)
    out = extract_intuitionistic(p)
    assert out == Proof(RuleId.AXIOM, Sequent(s.ante, (T,)))


def test_starify_rejects_a_premise_the_starred_rule_cannot_hold():
    p = Proof(RuleId.AND_L_LEFT, parse_sequent("q & s |- t"), (axiom([T], [T]),), principal=("ante", 0))
    with pytest.raises(TransformError, match=r"^malformed and-l-left node at q & s \|- t$"):
        _starify(p)


def test_extraction_round_trip_path_handles_implication_right():
    # no implication-left, disjunction-right or exists-right: the
    # single-succedent path applies even though imp-r is present
    s = parse_sequent("|- q => q & q")
    res = prove(s, "c")
    out = extract_intuitionistic(res.proof)
    assert out.conclusion == s
    assert check_proof(out, INTUITIONISTIC)


@pytest.mark.parametrize("text", ["p & q |- r => p", "forall x. p(x) |- r => p(a)"])
def test_extraction_round_trip_maps_plain_and_l_and_forall_l_back_to_starred_rules(text):
    # imp-r blocks the some-goal path; expansion turns and-l* and forall-l*
    # into plain steps, which the round trip maps back to the starred rules
    s = parse_sequent(text)
    res = proved(text)
    assert rule_usage(expand_starred(res.proof)) & {RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT, RuleId.FORALL_L}
    out = extract_intuitionistic(res.proof)
    assert out.conclusion == s and check_proof(out, INTUITIONISTIC)


def test_extraction_rejects_proofs_blocking_both_paths():
    res = proved("|- ((q => s) => q) => q")
    with pytest.raises(TransformError) as exc:
        extract_intuitionistic(res.proof)
    msg = str(exc.value)
    assert "imp-r" in msg and "imp-l" in msg


@given(st.integers(0, 5_000))
def test_extraction_property_on_eligible_random_proofs(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    res = prove(s, "c")
    if not isinstance(res, Proved):
        return
    plain = expand_starred(res.proof)
    fams = {rule_family(r) for r in rule_usage(plain)} - {"axiom", "contr-l", "contr-r"}
    if fams & {"imp-r", "or-l"}:
        return
    out = extract_intuitionistic(plain)
    assert check_proof(out, INTUITIONISTIC)
    assert out.conclusion.ante == s.ante
    assert out.conclusion.succ[0] in s.succ


_EXTRACTION_FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls")


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_extraction_succeeds_exactly_where_the_rule_profile_allows(seed):
    # c proofs of propositional and in-fragment draws: extraction takes the
    # some-goal path where the expanded proof avoids condition 1's families,
    # else the round-trip path where it avoids condition 4's and ends in a
    # single succedent, and raises everywhere else
    rng = random.Random(seed)
    if seed % 2:
        s = random_propositional_sequent(rng)
    else:
        fragment = _EXTRACTION_FRAGMENTS[seed // 2 % len(_EXTRACTION_FRAGMENTS)]
        s = random_fragment_sequent(rng, fragment, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    res = prove(s, "c", SearchLimits(node_budget=2_000))
    if not isinstance(res, Proved):
        return
    fams = {rule_family(r) for r in rule_usage(expand_starred(res.proof))}
    some_goal = not fams & FORBIDDEN_FAMILIES[1]
    round_trip = not fams & FORBIDDEN_FAMILIES[4] and len(s.succ) == 1
    if not (some_goal or round_trip):
        with pytest.raises(TransformError):
            extract_intuitionistic(res.proof)
        return
    out = extract_intuitionistic(res.proof)
    assert check_proof(out, INTUITIONISTIC)
    assert out.conclusion.ante == s.ante
    assert len(out.conclusion.succ) == 1 and out.conclusion.succ[0] in s.succ


# ---------------------------------------------------------------------------
# the generic per-rule steps against the per-rule reference


def _seeded_proofs(n: int):
    """Proved outcomes of n seeded sequents, a third each quantifier-free,
    in-fragment (first-order included) and Horn, under c, i, o and restart."""
    rng = random.Random(20)
    limits = SearchLimits(node_budget=2_000)
    frags = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls")
    for k in range(n):
        if k % 3 == 0:
            s = random_propositional_sequent(rng, 6)
        elif k % 3 == 1:
            s = random_fragment_sequent(rng, frags[k % 6], rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        else:
            s = random_horn_sequent(rng)
        searches = [lambda r=r: prove(s, r, limits) for r in ("c", "i", "o")]
        for search in searches + [lambda: prove_restart(s, limits)]:
            try:
                res = search()
            except ValueError:  # a single-succedent relation on a wider sequent
                continue
            if isinstance(res, Proved):
                yield res


def _record(make, cls) -> str:
    try:
        return dump_proof(make(), cls)
    except TransformError as exc:
        return f"TransformError: {exc}"


#: the rules that consume their principal, each with its own contraction step
_CONSUMING = {*INVERTIBLE["ante"].values(), *INVERTIBLE["succ"].values(), RuleId.IMP_L_STAR_INT, RuleId.BOT_R}


def _contracted_on_principals(p):
    """Each subproof of p whose rule consumes its principal, below a
    contraction on that principal: eliminating it takes the rule's step."""
    for n in proof_nodes(p):
        if n.rule in _CONSUMING:
            side, i = n.principal
            f = (n.conclusion.ante if side == "ante" else n.conclusion.succ)[i]
            try:
                widened = weaken(n, extra_ante=(f,)) if side == "ante" else weaken(n, extra_succ=(f,))
            except TransformError:  # a succedent copy that imp-l*-int forbids
                continue
            yield Proof(RuleId.CONTR_L if side == "ante" else RuleId.CONTR_R, n.conclusion, (widened,), n.principal)


def _renaming_cases(p):
    """(new, reference) pairs of weakening, freshening and rebinding on p,
    built from p's own eigenvariables and constants so that renames happen:
    weakening by w(e) on the antecedent and on both sides, freshening away
    from one name and from all of them, and rebinding each eigen node's
    premise to another eigenvariable of p."""
    eigens = list(dict.fromkeys(n.eigen for n in proof_nodes(p) if n.eigen))
    names = eigens + sorted(free_symbols(p.conclusion))
    for e in names:
        w = (Atom("w", (Const(e),)),)
        yield lambda w=w: weaken(p, extra_ante=w), lambda w=w: reference_weaken(p, extra_ante=w)
        yield lambda w=w: weaken(p, w, w), lambda w=w: reference_weaken(p, w, w)
        yield lambda e=e: _freshen_eigens(p, {e}), lambda e=e: reference_freshen_eigens(p, {e})
    yield lambda: _freshen_eigens(p, set(names)), lambda: reference_freshen_eigens(p, set(names))
    for n in proof_nodes(p):
        for e in eigens if n.eigen else ():
            args = (n.premises[0], n.eigen, e)
            yield lambda args=args: _rebind_eigen(*args), lambda args=args: reference_rebind_eigen(*args)


def _corpus_proofs(corpus):
    """The c, i and o proofs of the corpus entries."""
    limits = SearchLimits(node_budget=5_000)
    for e in corpus:
        for logic in "cio":
            try:
                res = prove(e.sequent, logic, limits)
            except ValueError:  # a single-succedent relation on a wider sequent
                continue
            if isinstance(res, Proved):
                yield res


def test_generic_steps_match_the_per_rule_reference(corpus):
    rng = random.Random(21)
    compared = errors = 0
    # the corpus proofs nest eigenvariable binders, the outer eigenvariable
    # occurring below the inner one, which rebinding must keep apart
    for res in _corpus_proofs(corpus):
        for new, ref in _renaming_cases(res.proof):
            assert _record(new, res.proof_class) == _record(ref, res.proof_class), res.proof.conclusion
            compared += 1
    for res in _seeded_proofs(150):
        p, cls = res.proof, res.proof_class
        try:
            dirty = decorate_with_contractions(rng, p, 3)
        except TransformError:  # a succedent copy that a restart node forbids
            dirty = None
        cases = [
            (lambda: expand_starred(p), lambda: reference_expand_starred(p)),
            (lambda: extract_intuitionistic(p), lambda: reference_extract_intuitionistic(p)),
            # the two extraction paths on every expanded proof, eligible or not
            (lambda: _starify(expand_starred(p)), lambda: reference_starify(reference_expand_starred(p))),
            (
                lambda: drive(_extract_some_goal, expand_starred(p)),
                lambda: reference_extract_some_goal(reference_expand_starred(p)),
            ),
            (
                lambda: eliminate_contractions(expand_starred(p)),
                lambda: reference_eliminate_contractions(reference_expand_starred(p)),
            ),
        ]
        if dirty is not None:
            cases.append(
                (lambda: eliminate_contractions(dirty), lambda: reference_eliminate_contractions(dirty))
            )
        for q in _contracted_on_principals(p):
            cases.append((lambda q=q: eliminate_contractions(q), lambda q=q: reference_eliminate_contractions(q)))
        cases += _renaming_cases(p)
        for new, ref in cases:
            got = _record(new, cls)
            assert got == _record(ref, cls), (p.conclusion, cls)
            compared += 1
            errors += got.startswith("TransformError")
    # both outcomes occur often enough for the comparison to mean something
    assert compared > 1_500 and 100 < errors < compared - 1_000


# ---------------------------------------------------------------------------
# augment


def test_augment_adds_the_goal_negation():
    assert augment(parse_sequent("|- q")) == parse_sequent("q => bot |- q")


def test_augment_keeps_existing_antecedent():
    s = parse_sequent("p(a) |- exists x. p(x)")
    out = augment(s)
    assert out == parse_sequent("(exists x. p(x)) => bot, p(a) |- exists x. p(x)")


def test_augment_needs_singleton_succedent():
    with pytest.raises(ValueError):
        augment(parse_sequent("|- q, s"))


def test_augmentation_preserves_classical_verdicts():
    for text in ["|- ((q => s) => q) => q", "|- q", "q | s |- s | q"]:
        s = parse_sequent(text)
        direct = prove(s, "c")
        via = prove(augment(s), "c")
        assert isinstance(direct, Proved) == isinstance(via, Proved), text


# ---------------------------------------------------------------------------
# inversion (single-premise starred rules)


@given(st.integers(0, 5_000))
def test_invertible_rules_keep_provability_and_height(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    res = prove(s, "c")
    if not isinstance(res, Proved):
        return
    p, h = res.proof, proof_height(res.proof)
    for f in set(s.ante):
        if isinstance(f, And):
            inv = _invert_once(p, "ante", f)
            assert proof_height(inv) <= h
            assert check_proof(inv, CLASSICAL_STAR)
    for f in set(s.succ):
        if isinstance(f, Or):
            inv = _invert_once(p, "succ", f)
            assert proof_height(inv) <= h
            assert check_proof(inv, CLASSICAL_STAR)
        if isinstance(f, Imp):
            inv = _invert_once(p, "succ", f)
            assert proof_height(inv) <= h
            assert check_proof(inv, CLASSICAL_STAR)


def test_inverted_premise_matches_the_rule_schema():
    res = proved("q & s |- q")
    inv = _invert_once(res.proof, "ante", And(Q, S))
    assert inv.conclusion == parse_sequent("q, s |- q")
    res = proved("|- q => q")
    inv = _invert_once(res.proof, "succ", Imp(Q, Q))
    assert inv.conclusion == parse_sequent("q |- q")
    res = proved("s |- q | s")
    inv = _invert_once(res.proof, "succ", Or(Q, S))
    assert inv.conclusion == parse_sequent("s |- q, s")


# ---------------------------------------------------------------------------
# a proof 1,399 nodes high, at the default recursion limit


@pytest.fixture(scope="module")
def wide_conjunction_proof():
    # one and-l* per conjunction of p0 & ... & p699 above one and-r per
    # conjunction, as in test_search's round trip of the same proof
    conjuncts = " & ".join(f"p{k}" for k in range(700))
    res = prove(parse_sequent(f"{conjuncts} |- {conjuncts}"), "i")
    assert isinstance(res, Proved) and proof_height(res.proof) == 1_399
    return res.proof


def test_extraction_of_a_1399_high_proof_replays(wide_conjunction_proof):
    p = wide_conjunction_proof
    out = extract_intuitionistic(p)
    assert out.conclusion == p.conclusion
    assert check_proof(out, INTUITIONISTIC)


def test_inversion_of_a_1399_high_proof_replays(wide_conjunction_proof):
    p = wide_conjunction_proof
    f = p.conclusion.succ[0]
    out = _invert_once(p, "succ", f)
    assert out.conclusion == Sequent(p.conclusion.ante, (f.left,))
    assert check_proof(out, INTUITIONISTIC_STAR)


def test_contraction_elimination_of_a_1399_high_proof_replays(wide_conjunction_proof):
    p, r = wide_conjunction_proof, Atom("r")
    s = p.conclusion.plus(ante=(r,))
    out = eliminate_contractions(Proof(RuleId.CONTR_L, s, (weaken(p, (r, r)),), ("ante", s.ante.index(r))))
    assert out.conclusion == s
    assert check_proof(out, INTUITIONISTIC_STAR)
