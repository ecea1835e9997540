"""Term and formula structure: binding, substitution, multisets, printing."""

import random

import pytest
from hypothesis import given, strategies as st

from seqcalc.syntax import (
    BOT,
    TOP,
    And,
    App,
    Atom,
    Bot,
    Bound,
    Const,
    Exists,
    Forall,
    Imp,
    Meta,
    Or,
    Sequent,
    Top,
    Var,
    connective_count,
    exists,
    forall,
    format_formula,
    format_sequent,
    format_term,
    formula_key,
    free_symbols,
    fresh_name,
    ground_subterms,
    instantiate,
    is_quantifier_free,
    metas_in,
    multiset_minus,
    multiset_union,
    neg,
    predicate_names,
    rename_constant,
    substitute,
    term_key,
    term_size,
)
from seqcalc.parser import parse_formula, parse_sequent

from _oracles import mixed_leaves, random_in_grammar, random_propositional, PROP_LEAVES


def rand_fo_formula(rng: random.Random, depth: int):
    """Random first-order formula with genuine binding structure."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Atom(rng.choice("qst"))
        if kind == 1:
            return Atom("p", (rng.choice((Var("x"), Var("y"), Const("a"))),))
        if kind == 2:
            return Atom("r", (Var("x"), App("f", (Var("y"),))))
        return rng.choice((TOP, BOT))
    kind = rng.randrange(5)
    if kind < 3:
        ctor = (And, Or, Imp)[kind]
        return ctor(rand_fo_formula(rng, depth - 1), rand_fo_formula(rng, depth - 1))
    binder = forall if kind == 3 else exists
    return binder(rng.choice("xy"), rand_fo_formula(rng, depth - 1))


seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# binding and instantiation


def test_forall_binds_named_variable():
    f = forall("x", Atom("p", (Var("x"),)))
    assert f == Forall(Atom("p", (Bound(0),)))
    assert "x" not in free_symbols(f)


def test_nested_binders_use_de_bruijn_indices():
    f = forall("x", exists("y", Atom("r", (Var("x"), Var("y")))))
    assert f == Forall(Exists(Atom("r", (Bound(1), Bound(0)))))


def test_shadowing_inner_binder_wins():
    f = forall("x", And(Atom("p", (Var("x"),)), forall("x", Atom("q", (Var("x"),)))))
    inner = And(Atom("p", (Bound(0),)), Forall(Atom("q", (Bound(0),))))
    assert f == Forall(inner)


def test_instantiate_replaces_outer_binder_only():
    f = forall("x", exists("y", Atom("r", (Var("x"), Var("y")))))
    inst = instantiate(f, Const("a"))
    assert inst == Exists(Atom("r", (Const("a"), Bound(0))))


def test_instantiate_vacuous_binder():
    f = Forall(Atom("q"))
    assert instantiate(f, Const("c")) == Atom("q")


def test_instantiate_rejects_non_quantifier():
    with pytest.raises((TypeError, ValueError)):
        instantiate(Atom("q"), Const("a"))


def test_display_hint_does_not_affect_equality():
    assert Forall(Atom("p", (Bound(0),)), "x") == Forall(Atom("p", (Bound(0),)), "z")
    assert hash(Forall(Atom("p", (Bound(0),)), "x")) == hash(Forall(Atom("p", (Bound(0),)), "z"))


def test_substitute_formula():
    f = Imp(Atom("p", (Var("x"),)), forall("x", Atom("p", (Var("x"),))))
    g = substitute(Const("a"), "x", f)
    assert g == Imp(Atom("p", (Const("a"),)), Forall(Atom("p", (Bound(0),))))


def test_neg_is_implication_to_bottom():
    assert neg(Atom("q")) == Imp(Atom("q"), BOT)


# ---------------------------------------------------------------------------
# symbol bookkeeping


def test_free_symbols_sees_constants_and_function_names():
    f = Atom("r", (Const("a"), App("f", (Const("b"),))))
    assert {"a", "b", "f"} <= set(free_symbols(f))


def test_fresh_name_avoids_taken():
    taken = {"c", "c0", "c1"}
    n = fresh_name("c", taken)
    assert n not in taken and n.startswith("c")


def test_predicate_names():
    f = parse_formula("p(a) & (q => r(b, c))")
    assert predicate_names(f) == frozenset({"p", "q", "r"})


def test_ground_subterms_ignores_bound_containing_terms():
    s = parse_sequent("forall x. r(x, f(a)) |- p(b)")
    gs = ground_subterms(s)
    assert Const("a") in gs and Const("b") in gs and App("f", (Const("a"),)) in gs
    assert not any(isinstance(t, Bound) for t in gs)


def test_rename_constant():
    f = parse_formula("p(a) => exists x. r(x, a)")
    g = rename_constant(f, "a", "z")
    assert g == parse_formula("p(z) => exists x. r(x, z)")


# ---------------------------------------------------------------------------
# the traversal core under shadowing binders


FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls")


def clause_draw(seed: int):
    """A clause of a seeded fragment over the mixed leaves: a free x, and x
    binders nested inside one another."""
    rng = random.Random(seed)
    return random_in_grammar(rng, rng.choice(FRAGMENTS), "clause", 6, mixed_leaves())


@given(seeds)
def test_binding_and_renaming_round_trip(seed):
    f = clause_draw(seed)
    assert instantiate(forall("x", f), Var("x")) == f
    t = App("g", (Var("x"), Const("b")))
    assert instantiate(forall("x", f), t) == substitute(t, "x", f)
    z = fresh_name("z", free_symbols(f) | predicate_names(f))
    renamed = rename_constant(f, "a", z)
    assert (renamed != f) == ("a" in free_symbols(f))
    assert rename_constant(renamed, z, "a") == f


@given(seeds)
def test_substituted_metavariable_occurs_exactly_where_x_is_free(seed):
    f = clause_draw(seed)
    want = frozenset({0}) if "x" in free_symbols(f) else frozenset()
    assert metas_in(substitute(Meta(0), "x", f)) == want


@given(seeds)
def test_sequent_collectors_are_unions_over_members(seed):
    rng = random.Random(seed)
    members = [clause_draw(rng.randrange(2**32)) for _ in range(3)]
    members[1] = substitute(App("g", (Meta(1),)), "x", members[1])
    members[2] = substitute(App("g", (Const("b"),)), "x", members[2])
    s = Sequent(tuple(members[:2]), tuple(members[2:]))
    for collect in (free_symbols, metas_in, ground_subterms):
        assert collect(s) == frozenset().union(*(collect(m) for m in members))
    assert not free_symbols(ground_subterms(s)) & {"x", "X1"}


# ---------------------------------------------------------------------------
# sequents as multisets


def test_sequent_antecedent_is_order_insensitive():
    a = parse_sequent("p, q |- s")
    b = parse_sequent("q, p |- s")
    assert a == b and hash(a) == hash(b)


def test_sequent_keeps_duplicates():
    a = parse_sequent("p, p |- q")
    b = parse_sequent("p |- q")
    assert a != b and len(a.ante) == 2


def test_multiset_minus_respects_multiplicity():
    xs = (Atom("p"), Atom("p"), Atom("q"))
    assert multiset_minus(xs, (Atom("p"),)) == (Atom("p"), Atom("q"))
    assert multiset_minus(xs, (Atom("p"), Atom("p"), Atom("p"))) is None
    assert multiset_minus(xs, (Atom("s"),)) is None


def test_multiset_union_counts():
    out = multiset_union((Atom("p"),), (Atom("p"), Atom("q")))
    assert sorted(f.pred for f in out) == ["p", "p", "q"]


def test_sequent_plus_and_without():
    s = parse_sequent("p |- q")
    t = s.plus(ante=(Atom("s"),))
    assert t == parse_sequent("p, s |- q")
    back = t.without_ante(t.ante.index(Atom("s")))
    assert back == s


def _rehinted(f, hint: str):
    """An alpha-variant of f: equal to it, but every binder named hint."""
    if isinstance(f, (Forall, Exists)):
        return type(f)(_rehinted(f.body, hint), hint)
    if isinstance(f, (And, Or, Imp)):
        return type(f)(_rehinted(f.left, hint), _rehinted(f.right, hint))
    return f


def _shown(s: Sequent):
    """Both sides member by member, binder hints included."""
    return [format_formula(f) for f in s.ante], [format_formula(f) for f in s.succ]


@given(seeds)
def test_sequent_edits_match_the_sorting_constructor(seed):
    # without_* and plus skip the constructor's sort; they must still give
    # the order sorted() gives, down to which of two alpha-variants comes first
    rng = random.Random(seed)
    pool = [
        random_in_grammar(rng, rng.choice(FRAGMENTS), rng.choice(("clause", "goal")), rng.randrange(4), mixed_leaves())
        for _ in range(3)
    ]

    def members(n: int) -> tuple:
        return tuple(_rehinted(rng.choice(pool), rng.choice("xyz")) for _ in range(n))

    s = Sequent(members(rng.randrange(6)), members(rng.randrange(4)))
    edits = [(s.without_ante(i), Sequent(s.ante[:i] + s.ante[i + 1 :], s.succ)) for i in range(len(s.ante))]
    edits += [(s.without_succ(i), Sequent(s.ante, s.succ[:i] + s.succ[i + 1 :])) for i in range(len(s.succ))]
    for _ in range(4):
        a, b = members(rng.randrange(3)), members(rng.randrange(3))
        edits.append((s.plus(a, b), Sequent(s.ante + a, s.succ + b)))
    for got, want in edits:
        assert got == want
        assert _shown(got) == _shown(want)


# ---------------------------------------------------------------------------
# sizes, keys, printing


def test_connective_count():
    assert connective_count(parse_formula("p & (q | s) => t")) == 3
    assert connective_count(parse_formula("forall x. p(x)")) == 1


def test_is_quantifier_free():
    assert is_quantifier_free(parse_formula("p & q => s"))
    assert not is_quantifier_free(parse_formula("p & exists x. q(x)"))


def test_term_size():
    assert term_size(Const("a")) == 1
    assert term_size(App("f", (Const("a"), App("g", (Const("b"),))))) == 4


@given(seeds)
def test_formula_key_orders_consistently_with_equality(seed):
    rng = random.Random(seed)
    f = rand_fo_formula(rng, 3)
    g = rand_fo_formula(rng, 3)
    assert (formula_key(f) == formula_key(g)) == (f == g)


@given(seeds)
def test_term_key_orders_consistently_with_equality(seed):
    rng = random.Random(seed)
    pool = [Const("a"), Var("x"), App("f", (Const("a"),)), App("f", (Var("x"), Const("b")))]
    t = rng.choice(pool)
    u = rng.choice(pool)
    assert (term_key(t) == term_key(u)) == (t == u)


@given(seeds)
def test_format_parse_round_trip(seed):
    rng = random.Random(seed)
    f = rand_fo_formula(rng, 4)
    # ground the free variables: the concrete syntax has no free variables
    f = substitute(Const("a"), "x", substitute(Const("b"), "y", f))
    assert parse_formula(format_formula(f)) == f


@given(seeds)
def test_sequent_format_round_trip(seed):
    rng = random.Random(seed)
    members = [random_propositional(rng, rng.randrange(4)) for _ in range(3)]
    s = Sequent(tuple(members[:2]), tuple(members[2:]))
    assert parse_sequent(format_sequent(s)) == s


@given(seeds)
def test_equal_formulas_hash_equal(seed):
    rng = random.Random(seed)
    f = rand_fo_formula(rng, 3)
    g = rand_fo_formula(random.Random(seed), 3)
    assert f == g and hash(f) == hash(g)


def test_format_term_nested():
    t = App("f", (Const("a"), App("g", (Const("b"),))))
    assert format_term(t) == "f(a, g(b))"


def test_format_formula_precedence_minimal_parens():
    assert format_formula(parse_formula("p & q | s")) == "p & q | s"
    assert format_formula(parse_formula("(p | q) & s")) == "(p | q) & s"
    assert format_formula(parse_formula("p => q => s")) == "p => q => s"
    assert format_formula(parse_formula("(p => q) => s")) == "(p => q) => s"
