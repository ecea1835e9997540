"""Term and formula structure: binding, substitution, multisets, printing,
interning and the flat sort keys."""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from seqcalc import syntax
from seqcalc.syntax import (
    BOT,
    TOP,
    And,
    App,
    Atom,
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
    neg,
    predicate_names,
    rename_constant,
    subformulas,
    subterms,
    term_key,
)
from seqcalc.parser import parse_formula, parse_sequent

from _oracles import (
    mixed_leaves,
    random_in_grammar,
    random_propositional,
    reference_exists,
    reference_forall,
    reference_formula_key,
    reference_instantiate,
    reference_is_quantifier_free,
    reference_lbr,
    reference_rename_constant,
    reference_substitute,
    reference_term_key,
    reference_term_size,
)


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
    g = rename_constant(f, {"a": "z"})
    assert g == parse_formula("p(z) => exists x. r(x, z)")
    # every name of the map at once: a swap, not a chain
    swapped = rename_constant(parse_formula("r(a, f(b))"), {"a": "b", "b": "a", "f": "g"})
    assert swapped == parse_formula("r(b, g(a))")


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
    assert instantiate(forall("x", f), t) == reference_substitute(t, "x", f)
    z = fresh_name("z", free_symbols(f) | predicate_names(f))
    renamed = rename_constant(f, {"a": z})
    assert (renamed != f) == ("a" in free_symbols(f))
    assert rename_constant(renamed, {z: "a"}) == f


@given(seeds)
def test_substituted_metavariable_occurs_exactly_where_x_is_free(seed):
    f = clause_draw(seed)
    want = frozenset({0}) if "x" in free_symbols(f) else frozenset()
    assert metas_in(instantiate(forall("x", f), Meta(0))) == want


@given(seeds)
def test_sequent_collectors_are_unions_over_members(seed):
    rng = random.Random(seed)
    members = [clause_draw(rng.randrange(2**32)) for _ in range(3)]
    members[1] = instantiate(forall("x", members[1]), App("g", (Meta(1),)))
    members[2] = instantiate(forall("x", members[2]), App("g", (Const("b"),)))
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
    # without_ante, replace_* and plus skip the constructor's sort; they must still
    # give the order sorted() gives, down to which of two alpha-variants comes first
    rng = random.Random(seed)
    pool = [
        random_in_grammar(rng, rng.choice(FRAGMENTS), rng.choice(("clause", "goal")), rng.randrange(4), mixed_leaves())
        for _ in range(3)
    ]

    def members(n: int) -> tuple:
        return tuple(_rehinted(rng.choice(pool), rng.choice("xyz")) for _ in range(n))

    s = Sequent(members(rng.randrange(6)), members(rng.randrange(4)))
    edits = [(s.without_ante(i), Sequent(s.ante[:i] + s.ante[i + 1 :], s.succ)) for i in range(len(s.ante))]
    for _ in range(4):
        a, b = members(rng.randrange(3)), members(rng.randrange(3))
        edits.append((s.plus(a, b), Sequent(s.ante + a, s.succ + b)))
        if s.ante:
            i = rng.randrange(len(s.ante))
            edits.append((s.replace_ante(i, a), Sequent(s.ante[:i] + s.ante[i + 1 :] + a, s.succ)))
        if s.succ:
            i = rng.randrange(len(s.succ))
            edits.append((s.replace_succ(i, b), Sequent(s.ante, s.succ[:i] + s.succ[i + 1 :] + b)))
    for got, want in edits:
        assert got == want
        assert _shown(got) == _shown(want)


# ---------------------------------------------------------------------------
# sizes, keys, printing


def test_is_quantifier_free():
    assert is_quantifier_free(parse_formula("p & q => s"))
    assert not is_quantifier_free(parse_formula("p & exists x. q(x)"))
    # nesting deeper than the recursion limit, a quantifier at the bottom
    limit = sys.getrecursionlimit()
    deep = parse_formula("~" * 3_000 + "(q(a) | p)")
    assert is_quantifier_free(deep)
    assert not is_quantifier_free(Imp(deep, neg(Forall(Atom("q", (Bound(0),))))))
    assert sys.getrecursionlimit() == limit


def test_term_size():
    assert Const("a")._size == 1
    assert App("f", (Const("a"), App("g", (Const("b"),))))._size == 4


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
    f = instantiate(forall("x", instantiate(forall("y", f), Const("b"))), Const("a"))
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


def test_nested_quantifiers_with_mixed_hints_print_and_read_back():
    # 2,000 binders whose hints collide with one another, with the
    # keywords and with the symbols of their bodies, so that each name is a
    # fresh variant; the printer reads each body's symbols from one pass
    limit = sys.getrecursionlimit()
    hints = ("x", "x0", "y", "forall", "1a", "x", "p", "x1")
    f = Atom("p", (Bound(0), Bound(3), Const("x1")))
    for k in range(2_000):
        if k % 7 == 0:
            f = And(Atom("q", (Bound(k % 5), Const("y0"))), f)
        f = (Forall if k % 3 else Exists)(f, hints[k % len(hints)])
    text = format_formula(f)
    assert parse_formula(text) == f
    assert format_formula(parse_formula(text)) == text
    assert text.startswith("forall x10. exists p0. forall x. forall x0. exists x2. q(x2, y0) & (forall y.")
    # the text the printer gave when it walked each body at its binder
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f0ec010fd36063b7aaccc9801cea3a00c97fa30c5f7bc2840578e4799bdfc618"
    )
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# interning and the flat sort keys

# names that are prefixes of one another or hold the characters the keys
# use as separators; integers of different signs and digit counts
NAMES = st.sampled_from(("", "p", "pq", "p\0", "p\0q", "p\1", "p)", "p0", "q", "a", "ab"))
INTS = st.sampled_from((0, 1, 9, 10, 99, 100, -1, -9, -10, 10**20)) | st.integers(-(10**6), 10**6)
HINTS = st.sampled_from(("x", "y", "z"))
TERMS = st.recursive(
    st.builds(Bound, INTS) | st.builds(Var, NAMES) | st.builds(Const, NAMES) | st.builds(Meta, INTS),
    lambda sub: st.builds(App, NAMES, st.lists(sub, max_size=3).map(tuple)),
    max_leaves=5,
)
FORMULAS = st.recursive(
    st.sampled_from((TOP, BOT)) | st.builds(Atom, NAMES, st.lists(TERMS, max_size=2).map(tuple)),
    lambda sub: st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Imp, sub, sub)
    | st.builds(Forall, sub, HINTS)
    | st.builds(Exists, sub, HINTS),
    max_leaves=6,
)


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


@settings(max_examples=200)
@given(st.lists(TERMS, min_size=2, max_size=8))
@example([Meta(9), Meta(10), Bound(9), Bound(10), Bound(-10), Bound(-9), Bound(-1), Var("p"), Var("pq"), Const("pq"), Const("p")])
@example([App("p", ()), App("pq", ()), App("p", (Meta(10),)), App("p", (Meta(9),)), App("p", (Meta(9), Const("a")))])
def test_term_key_orders_as_the_nested_reference(ts):
    for t, u in itertools.combinations(ts, 2):
        ref_t, ref_u = reference_term_key(t), reference_term_key(u)
        assert _cmp(term_key(t), term_key(u)) == _cmp(ref_t, ref_u)
        assert (t == u) == (ref_t == ref_u) == (t is u)


@settings(max_examples=200)
@given(st.lists(FORMULAS, min_size=2, max_size=8))
@example([Atom("pq"), Atom("p"), Atom("p", (Meta(10),)), Atom("p", (Meta(9),)), Forall(Atom("p")), Exists(TOP)])
@example([And(Atom("p"), TOP), And(Atom("pq"), BOT), Forall(Atom("p", (Bound(0),)), "y"), Forall(Atom("p", (Bound(0),)))])
def test_formula_key_orders_as_the_nested_reference(fs):
    for f, g in itertools.combinations(fs, 2):
        ref_f, ref_g = reference_formula_key(f), reference_formula_key(g)
        assert _cmp(formula_key(f), formula_key(g)) == _cmp(ref_f, ref_g)
        assert (f == g) == (ref_f == ref_g)
    by_key, by_reference = sorted(fs, key=formula_key), sorted(fs, key=reference_formula_key)
    assert all(a is b for a, b in zip(by_key, by_reference))


@given(FORMULAS)
def test_equal_builds_are_one_object_and_alpha_variants_are_not(f):
    assert pickle.loads(pickle.dumps(f)) is f
    g = _rehinted(f, "w")
    assert g == f and hash(g) == hash(f) and formula_key(g) == formula_key(f)
    if any(isinstance(h, (Forall, Exists)) for h in subformulas(f)):
        assert g is not f
        assert " w. " in format_formula(g) and " w. " not in format_formula(f)
    else:
        assert g is f


def test_dropped_formulas_leave_the_intern_table():
    # with the cycle collector off only reference counts free nodes, so the
    # table shrinks back only if no node sits in a reference cycle; the ring
    # of recent nodes is emptied on both sides, so it keeps none of them
    gc.collect()
    gc.disable()
    try:
        syntax._RECENT.clear()
        before = len(syntax._TABLE)
        built = [forall("y", Imp(Atom(f"dropped{k}", (Var("y"), Const(f"c{k}"))), BOT)) for k in range(10_000)]
        assert len(syntax._TABLE) >= before + 40_000
        del built
        syntax._RECENT.clear()
        assert len(syntax._TABLE) == before
    finally:
        gc.enable()


def test_the_ring_keeps_the_last_nodes_built_and_frees_older_dropped_ones():
    gc.collect()
    gc.disable()
    try:
        cap = syntax._RECENT_CAP
        dropped = Imp(Atom("ringed", (Const("r0"),)), BOT)
        gone = weakref.ref(dropped), weakref.ref(dropped.left)
        del dropped
        # nodes the ring still holds stay in the table
        assert gone[0]() is not None and gone[0]() is syntax._RECENT[-1]
        for k in range(cap):
            Atom(f"filler{k}")
            assert len(syntax._RECENT) <= cap
        # pushed out of the ring with no other reference, both are freed
        assert len(syntax._RECENT) == cap
        assert gone[0]() is None and gone[1]() is None
        assert not any(ikey[:2] == (Atom, "ringed") for ikey in syntax._TABLE)
        # a node built again while the ring holds it is the same object
        last = syntax._RECENT[-1]
        assert Atom(f"filler{cap - 1}") is last
    finally:
        gc.enable()


def test_concurrent_builds_of_equal_structures_share_one_object():
    start = threading.Barrier(8)

    def build(_):
        start.wait(timeout=60)
        return [Forall(Imp(Atom(f"raced{i}", (App("f", (Const(f"r{i}"),)),)), BOT), "y") for i in range(2_500)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            built = list(pool.map(build, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for same in zip(*built):
        assert all(f is same[0] for f in same)


def _tower(f, n: int = 2000):
    for _ in range(n):
        f = neg(f)
    return f


def test_deep_members_sort_compare_and_hash_without_recursion():
    assert sys.getrecursionlimit() < 2000
    f, g = _tower(Atom("p")), _tower(Atom("q"))
    assert Sequent((f,), (f,)).succ == (f,)
    assert Sequent((g, f), ()).ante == (f, g)
    assert _tower(Atom("p")) is f and hash(f) == hash(_tower(Atom("p")))
    # alpha-variants are two objects, so == must compare their twins
    y, z = (_tower(Forall(Atom("p", (Bound(0),)), h)) for h in "yz")
    assert y == z and y is not z and hash(y) == hash(z)
    # the nested reference key cannot even be built at this depth
    with pytest.raises(RecursionError):
        reference_formula_key(f)
    # binding, opening and renaming, on a member 2,000 deep
    # in both its formula and its term
    deep = {}
    for leaf in (Var("x"), Bound(0), Const("a"), Const("b")):
        t = leaf
        for _ in range(2000):
            t = App("f", (t,))
        deep[leaf] = _tower(Atom("p", (t,)))
    opened, closed, named = deep[Bound(0)], deep[Const("a")], deep[Var("x")]
    assert forall("x", named) is Forall(opened, "x") and exists("x", named) is Exists(opened, "x")
    assert instantiate(Forall(opened, "x"), Const("a")) is closed
    assert instantiate(Exists(closed), Const("b")) is closed
    assert rename_constant(closed, {"a": "b"}) is deep[Const("b")]
    assert rename_constant(closed, {"f": "g"}) is rename_constant(rename_constant(closed, {"f": "h"}), {"h": "g"})


@given(st.lists(FORMULAS, max_size=6), st.lists(FORMULAS, max_size=6))
def test_top_sorts_first_in_any_sorted_side(ante, succ):
    # the provers test a side for top by its first member alone, and for
    # bottom by the members before the first that is not top
    s = Sequent(tuple(ante) + (TOP,), tuple(succ) + (TOP,))
    assert s.ante[0] is TOP and s.succ[0] is TOP
    assert Top() is TOP and all(formula_key(TOP) < formula_key(f) for f in ante + succ if f is not TOP)
    with_bot = Sequent(tuple(ante) + (BOT,), ()).ante
    assert next(f for f in with_bot if f is not TOP) is BOT


# ---------------------------------------------------------------------------
# the rewrites, the stored loose-bound range, the stored quantifier-free
# and metavariable flags and the stored term size against recursive
# references and walks


@given(FORMULAS, TERMS, NAMES, NAMES, HINTS)
def test_rewrites_return_the_objects_the_recursive_rewriters_build(f, t, name, other, hint):
    # the intern table keys binder hints too, so `is` compares them as well
    for q in (Forall(f, hint), Exists(f, hint)):
        assert instantiate(q, t) is reference_instantiate(q, t)
    assert forall(name, f) is reference_forall(name, f)
    assert exists(name, f) is reference_exists(name, f)
    for x in (f, t):
        assert rename_constant(x, {name: other}) is reference_rename_constant(x, name, other)


@given(TERMS | FORMULAS)
def test_the_stored_loose_bound_range_is_the_reference_walk(x):
    for y in itertools.chain(subterms(x), subformulas(x)):
        assert y._lbr == reference_lbr(y)


@given(TERMS | FORMULAS)
def test_the_stored_quantifier_free_flag_is_the_reference_walk(x):
    for y in itertools.chain(subterms(x), subformulas(x)):
        assert is_quantifier_free(y) is y._qf is reference_is_quantifier_free(y)


@given(TERMS | FORMULAS)
def test_the_stored_metavariable_flag_is_the_reference_walk(x):
    for y in itertools.chain(subterms(x), subformulas(x)):
        assert y._mv is bool(metas_in(y))


def test_the_metavariable_flag_of_a_deep_formula_needs_no_recursion():
    # a metavariable under more nested negations than the recursion limit
    assert sys.getrecursionlimit() < 2_000
    f = Atom("p", (App("f", (Meta(0),)),))
    ground = Atom("p", (Const("a"),))
    for _ in range(2_000):
        f, ground = neg(f), neg(ground)
    assert f._mv and not ground._mv
    assert Forall(And(ground, f))._mv and not Exists(Or(ground, ground))._mv


@given(TERMS)
def test_the_stored_term_size_is_the_reference_walk(t):
    for u in subterms(t):
        assert u._size == reference_term_size(u)


def test_the_size_of_a_deep_term_needs_no_recursion():
    # a term nested deeper than the recursion limit, two arguments a level
    assert sys.getrecursionlimit() < 2_000
    t = Const("a")
    for _ in range(2_000):
        t = App("f", (t, Meta(0)))
    assert t._size == 4_001


@given(seeds)
def test_a_closed_quantifier_is_vacuous_exactly_when_its_body_has_range_0(seed):
    # clause draws hold no metavariable, so Meta(0) is fresh
    f = clause_draw(seed)
    for g in subformulas((forall("x", f), instantiate(forall("x", f), Const("a")), Forall(f), Exists(Forall(f)))):
        if isinstance(g, (Forall, Exists)) and reference_lbr(g) == 0:
            assert (g.body._lbr == 0) == (metas_in(instantiate(g, Meta(0))) == frozenset())


# ---------------------------------------------------------------------------
# the Sequent contract: an immutable pair of sorted sides


def _contract_sequent() -> Sequent:
    return Sequent((Atom("q"), Forall(Atom("p", (Bound(0),)), "y"), Atom("p")), (Exists(Atom("p", (Bound(0),))),))


def test_sequent_attributes_cannot_be_assigned_or_deleted():
    s = _contract_sequent()
    for name in ("ante", "succ", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, ())
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert not hasattr(s, "__dict__")
    assert s == _contract_sequent()


def test_sequent_equality_and_hash_are_those_of_the_sorted_sides():
    s = _contract_sequent()
    t = Sequent(tuple(reversed(s.ante)), s.succ)
    assert s == t and hash(s) == hash(t) == hash((s.ante, s.succ))
    assert s != Sequent(s.ante[1:], s.succ) and s != Sequent(s.ante, ())
    # a sequent equals no plain pair of its sides
    assert s != (s.ante, s.succ) and (s.ante, s.succ) != s
    # alpha-variant members make equal sequents
    rehinted = Sequent(tuple(_rehinted(f, "w") for f in s.ante), s.succ)
    assert rehinted == s and hash(rehinted) == hash(s)
    assert len({s, t, rehinted}) == 1


def test_sequent_keyword_construction_sorts_both_sides():
    s = _contract_sequent()
    assert Sequent(ante=tuple(reversed(s.ante)), succ=s.succ) == s
    assert Sequent(succ=(Atom("q"), Atom("p"))).succ == (Atom("p"), Atom("q"))
    assert Sequent(ante=[Atom("q"), Atom("p")]).ante == (Atom("p"), Atom("q"))
    assert Sequent() == Sequent((), ()) and Sequent().ante == () == Sequent().succ


def test_sequent_matches_a_class_pattern():
    match _contract_sequent():
        case Sequent(ante, succ):
            assert ante == _contract_sequent().ante and succ == _contract_sequent().succ
        case _:
            pytest.fail("no match")
    match _contract_sequent():
        case Sequent(succ=(Exists(),)):
            pass
        case _:
            pytest.fail("no keyword match")


def test_sequent_pickle_and_copy_round_trips_keep_the_members():
    s = _contract_sequent()
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert type(back) is Sequent and back == s and hash(back) == hash(s)
        # the members are interned, binder hints and all
        assert all(a is b for a, b in zip(back.ante + back.succ, s.ante + s.succ))
        with pytest.raises(AttributeError):
            back.ante = ()
