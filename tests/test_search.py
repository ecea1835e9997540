"""Proof search: verdicts per logic, limits, restart, Herbrandization, unification."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import search
from seqcalc.calculus import (
    CLASSICAL,
    CLASSICAL_STAR,
    INTUITIONISTIC,
    INTUITIONISTIC_STAR,
    UNIFORM,
    Proof,
    ProofClass,
    RuleId,
    check_proof,
    dump_proof,
    load_proof,
    proof_height,
    proof_nodes,
)
from seqcalc.parser import parse_formula, parse_sequent
from seqcalc.search import (
    NotProvedWithinLimits,
    Proved,
    Refuted,
    SearchLimits,
    Subst,
    _ClassicalProver,
    _NO_COUNTS,
    _GroundProver,
    _OutOfNodes,
    _Search,
    _classically_valid,
    _herbrand_expansion,
    _reserved_prefix,
    _valuate,
    herbrandize,
    is_quantifier_free_sequent,
    prove,
    prove_restart,
    unify,
    unify_formulas,
)
from seqcalc.syntax import (
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
    _MEMO_CAP,
    format_formula,
    format_sequent,
    formula_key,
    instantiate,
    metas_in,
    neg,
)
from seqcalc.transform import augment, expand_starred, weaken

from _oracles import (
    PROP_LEAVES,
    de_bruijn_sequent,
    expansion_countermodel,
    pigeonhole_sequent,
    random_fragment_sequent,
    random_goal_sequent,
    random_horn_sequent,
    random_propositional_sequent,
    random_quantified_sequent,
    reference_attainable,
    reference_classical_prover,
    reference_closing_first_step,
    reference_ground_prover,
    reference_herbrandize,
    reference_live_metas,
    reference_state_keys,
    truth_table_valid,
)

# the benchmark's own G4ip decider, which shares no code with the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from formulas import random_prop_sequent, show_sequent  # noqa: E402
from oracles import G4ip  # noqa: E402

_FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-int", "lp-cls")

PEIRCE = parse_sequent("|- ((q => s) => q) => q")


# ---------------------------------------------------------------------------
# verdicts that separate the logics


def test_peirce_is_classical_only():
    assert isinstance(prove(PEIRCE, "c"), Proved)
    assert isinstance(prove(PEIRCE, "i"), Refuted)
    assert isinstance(prove(PEIRCE, "o"), NotProvedWithinLimits)


def test_disjunction_swap_is_intuitionistic_but_not_goal_directed():
    s = parse_sequent("q | s |- s | q")
    assert isinstance(prove(s, "i"), Proved)
    assert not isinstance(prove(s, "o"), Proved)


def test_diagonal_sequent_is_classical_only():
    s = parse_sequent("forall x. forall y. (r(x, a) | r(y, b)) |- exists y. forall x. r(x, y)")
    assert isinstance(prove(s, "c"), Proved)
    assert isinstance(prove(s, "i"), NotProvedWithinLimits)


def test_double_negation_shift_needs_classical_logic():
    s = parse_sequent("forall x. ((p(x) => bot) => bot) |- forall x. p(x)")
    assert isinstance(prove(s, "c"), Proved)
    assert isinstance(prove(s, "i"), NotProvedWithinLimits)
    s2 = parse_sequent("((q => bot) => bot) |- q")
    assert isinstance(prove(s2, "c"), Proved)
    assert isinstance(prove(s2, "i"), Refuted)


def test_uniform_success_on_goal_directed_material():
    s = parse_sequent("q => s, q |- s & q")
    res = prove(s, "o")
    assert isinstance(res, Proved)
    assert res.proof_class == ProofClass("o")


def test_empty_succedent_never_provable():
    assert isinstance(prove(parse_sequent("bot |-"), "c"), Refuted)


# ---------------------------------------------------------------------------
# outcome classes


def test_propositional_negatives_are_refuted_not_timed_out():
    for text, logic in [("|- q", "c"), ("|- q", "i"), ("q | s |- q & s", "c"), ("q | s |- q & s", "i")]:
        assert isinstance(prove(parse_sequent(text), logic), Refuted), (text, logic)


#: classically invalid, and its Herbrandization keeps a function symbol
#: (the witness for y under forall x), so no valuation settles it
FUNCTION_ROOT = "forall x. exists y. r(x, y) |- exists y. forall x. r(x, y)"


def test_quantified_negatives_only_time_out():
    # a function-free quantified negative is refuted by its Herbrand
    # expansion; only one whose Herbrandization keeps a function symbol is
    # searched, and runs out
    assert isinstance(prove(parse_sequent("|- exists x. p(x)"), "c"), Refuted)
    assert isinstance(prove(parse_sequent("|- forall x. exists y. r(y, x)"), "i"), Refuted)
    s = parse_sequent(FUNCTION_ROOT)
    assert _classically_valid(s) is None
    for logic in "cio":
        assert isinstance(prove(s, logic), NotProvedWithinLimits), logic
    assert isinstance(prove_restart(s), NotProvedWithinLimits)


def test_goal_directed_mode_never_refutes():
    assert isinstance(prove(parse_sequent("|- q"), "o"), NotProvedWithinLimits)


def test_singleton_succedent_required_where_it_matters():
    two = parse_sequent("|- q, s")
    with pytest.raises(ValueError):
        prove(two, "i")
    with pytest.raises(ValueError):
        prove(two, "o")
    with pytest.raises(ValueError):
        prove_restart(two)
    assert isinstance(prove(two, "c"), Proved) or isinstance(prove(two, "c"), Refuted)


def test_unknown_logic_rejected():
    with pytest.raises(ValueError):
        prove(PEIRCE, "cstar")


# ---------------------------------------------------------------------------
# emitted proof classes


def test_classical_proofs_come_back_starred():
    res = prove(PEIRCE, "c")
    assert res.proof_class == ProofClass("cstar")
    assert check_proof(res.proof, res.proof_class)
    assert res.proof.conclusion == PEIRCE


def test_intuitionistic_proofs_come_back_starred():
    res = prove(parse_sequent("q | s |- s | q"), "i")
    assert res.proof_class == ProofClass("istar")
    assert check_proof(res.proof, res.proof_class)


def test_outcomes_carry_the_shared_class_constants():
    # quantifier-free and first-order inputs take different paths in each
    # engine; every c, i and o outcome holds the module's constant itself
    for text in ("q & s |- s & q", "forall x. p(x) |- exists y. p(y)"):
        s = parse_sequent(text)
        for logic, cls in (("c", CLASSICAL_STAR), ("i", INTUITIONISTIC_STAR), ("o", UNIFORM)):
            res = prove(s, logic)
            assert isinstance(res, Proved), (text, logic)
            assert res.proof_class is cls, (text, logic)


def test_restart_proofs_carry_their_goal():
    s = parse_sequent("q | s, q => t, s => t |- t")
    res = prove_restart(s)
    assert isinstance(res, Proved)
    assert res.proof_class == ProofClass("og", Atom("t"))
    assert check_proof(res.proof, res.proof_class)
    assert res.proof.conclusion == s


# ---------------------------------------------------------------------------
# restart mode


def test_restart_proves_peirce_without_classical_rules():
    res = prove_restart(PEIRCE)
    assert isinstance(res, Proved)


def test_restart_axiom_case():
    assert isinstance(prove_restart(parse_sequent("q |- q")), Proved)


def test_restart_cannot_reach_double_negation_shift():
    s = parse_sequent("forall x. ((p(x) => bot) => bot) |- forall x. p(x)")
    assert isinstance(prove_restart(s), NotProvedWithinLimits)


def test_restart_success_implies_classical_success():
    for text in [
        "|- ((q => s) => q) => q",
        "q | s, q => t, s => t |- t",
        "q | s |- s | q",
        "(q => bot) => bot |- q",
    ]:
        s = parse_sequent(text)
        if isinstance(prove_restart(s), Proved):
            assert isinstance(prove(s, "c"), Proved), text


# ---------------------------------------------------------------------------
# limits


def test_node_budget_exhaustion_reports_not_proved():
    hard = parse_sequent("|- ((q => s) => q) => q")
    res = prove(hard, "c", SearchLimits(node_budget=2))
    assert isinstance(res, NotProvedWithinLimits)


def test_quantifier_budget_bounds_instantiations():
    # two instances of the same clause are needed; budget 1 cannot find them
    s = parse_sequent("forall x. (p(x) => p(f(x))), p(a) |- p(f(f(a)))")
    assert isinstance(prove(s, "i", SearchLimits(quantifier_budget=1)), NotProvedWithinLimits)
    assert isinstance(prove(s, "i"), Proved)
    assert isinstance(prove(s, "c"), Proved)


def test_strengthened_axioms_close_on_compound_formulas():
    s = parse_sequent("q & s |- q & s")
    res = prove(s, "c", SearchLimits(strengthened_axioms=True))
    assert isinstance(res, Proved)
    assert res.proof.premises == ()  # closed at the root
    assert check_proof(res.proof, res.proof_class, strengthened_axioms=True)
    assert not check_proof(res.proof, res.proof_class)


def test_strengthened_axioms_close_a_compound_goal_in_the_ground_engine():
    s = parse_sequent("p & q |- p & q")
    res = prove(s, "i", SearchLimits(strengthened_axioms=True))
    assert isinstance(res, Proved)
    assert res.proof == Proof(RuleId.AXIOM, s)


def test_determinism_across_runs():
    s = parse_sequent("forall x. (p(x) => q), exists x. p(x) |- q")
    a = prove(s, "i")
    b = prove(s, "i")
    assert isinstance(a, Proved)
    assert dump_proof(a.proof, a.proof_class) == dump_proof(b.proof, b.proof_class)


@pytest.mark.parametrize(
    "text,logic",
    [
        ("q, q | s, q | s |- t => t", "i"),
        ("q, q | s, q | s, q => r |- r", "o"),
        ("q, q | s, q | s, q => r |- r", "i"),
    ],
)
def test_loop_check_keeps_repeated_members_decomposed_eagerly(text, logic):
    # splitting one of two equal disjunctions leaves a state that differs
    # from its parent only in that disjunction's multiplicity; the loop
    # check must not take it for a cycle
    res = prove(parse_sequent(text), logic)
    assert isinstance(res, Proved), res
    assert check_proof(res.proof, res.proof_class)


def _signature(res):
    if isinstance(res, Proved):
        return dump_proof(res.proof, res.proof_class)
    return type(res).__name__


def test_concurrent_calls_leave_interpreter_settings_alone():
    rng = random.Random(5)
    jobs = []
    for k in range(64):
        s = random_propositional_sequent(rng, 8)
        jobs.append((Sequent(s.ante, s.succ[:1] or (Atom("q"),)), "io"[k % 2]))
    expected = [_signature(prove(s, logic)) for s, logic in jobs]
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(prove, s, logic) for s, logic in jobs]
            got = [_signature(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sys.getrecursionlimit() == limit
    assert threading.stack_size() == stack
    assert got == expected


def _balanced_conjunction(atoms):
    if len(atoms) == 1:
        return atoms[0]
    mid = len(atoms) // 2
    return And(_balanced_conjunction(atoms[:mid]), _balanced_conjunction(atoms[mid:]))


def test_deep_search_paths_need_no_deep_interpreter_stack():
    # and-l* splits one conjunction per step, so the path to the first
    # closure is over 500 visits long
    c = _balanced_conjunction([Atom(f"p{k}") for k in range(512)])
    limit = sys.getrecursionlimit()
    res = prove(Sequent((c,), (c,)), "i")
    assert isinstance(res, Proved), res
    assert check_proof(res.proof, res.proof_class)
    assert sys.getrecursionlimit() == limit


def _node_fields(node):
    return (node.rule, node.conclusion, node.principal, node.witness, node.eigen, len(node.premises))


def test_deep_proofs_round_trip_through_json():
    # the i proof of the 512-atom sequent above is over 500 nodes high; the
    # c proof of ~^100 p |- p nests its members 100 deep; the i proof of
    # p0 & ... & p699 |- p0 & ... & p699 is 1,399 nodes high, one and-l* per
    # conjunction above one and-r per conjunction
    c = _balanced_conjunction([Atom(f"p{k}") for k in range(512)])
    negated = Atom("p")
    for _ in range(100):
        negated = neg(negated)
    conjuncts = " & ".join(f"p{k}" for k in range(700))
    chain = parse_sequent(f"{conjuncts} |- {conjuncts}")
    inputs = ((Sequent((c,), (c,)), "i", None), (Sequent((negated,), (Atom("p"),)), "c", None), (chain, "i", 1_399))
    limit = sys.getrecursionlimit()
    for s, logic, height in inputs:
        res = prove(s, logic)
        assert isinstance(res, Proved), res
        assert height is None or proof_height(res.proof) == height
        text = dump_proof(res.proof, res.proof_class)
        p, cls = load_proof(text)
        assert cls == res.proof_class
        assert dump_proof(p, cls) == text
        assert [_node_fields(n) for n in proof_nodes(p)] == [_node_fields(n) for n in proof_nodes(res.proof)]
        assert p == res.proof and hash(p) == hash(res.proof)
        # weakening and expansion fold over the tree too
        w = weaken(p, extra_ante=(Atom("r", (Const("a"),)),))
        assert check_proof(w, cls) and proof_height(w) == proof_height(p)
        assert check_proof(expand_starred(p), INTUITIONISTIC if logic == "i" else CLASSICAL)
    assert sys.getrecursionlimit() == limit


def test_classical_decision_of_a_wide_conjunction():
    # the classical twin of the test above: and-l* and and-r each take one
    # conjunction apart, over 500 steps between them
    c = _balanced_conjunction([Atom(f"p{k}") for k in range(256)])
    res = prove(Sequent((c,), (c,)), "c")
    assert isinstance(res, Proved), res
    assert check_proof(res.proof, res.proof_class)


def test_search_builds_only_sorted_sequents(corpus):
    # the engines build premises without re-sorting them; every side of
    # every conclusion must still be in the order sorted() gives it
    limits = SearchLimits(node_budget=5_000)
    for e in corpus:
        s = e.sequent
        outcomes = [prove(s, logic, limits) for logic in "cio"]
        outcomes += [prove_restart(s, limits), prove(augment(s), "o", limits)]
        for res in outcomes:
            if not isinstance(res, Proved):
                continue
            for node in proof_nodes(res.proof):
                for side in (node.conclusion.ante, node.conclusion.succ):
                    want = sorted(side, key=formula_key)
                    assert all(a is b for a, b in zip(side, want)), (e.name, format_sequent(node.conclusion))


#: longer than the default recursion limit
_DEEP = 1_500


def _deep_chain(chain: str) -> Sequent:
    p, q = Atom("p"), Atom("q")
    if chain == "&":
        f = p
        for _ in range(_DEEP - 1):
            f = And(p, f)
        return Sequent((f,), (p,))
    f = p
    for _ in range(_DEEP):
        f = Imp(q, f)
    return Sequent((f, q), (p,))


@pytest.mark.parametrize("logic", ["i", "o"])
@pytest.mark.parametrize("chain", ["&", "=>"])
def test_deep_members_are_searched_at_the_default_recursion_limit(chain, logic):
    limit = sys.getrecursionlimit()
    assert limit < _DEEP
    s = _deep_chain(chain)
    assert isinstance(prove(s, logic), Proved)
    # the search opens the existential with a constant of its own, so the
    # states after it key their members through the hole finder
    s = s.plus(ante=(Exists(Atom("r", (Bound(0),)), "x"),))
    res = prove(s, logic, SearchLimits(node_budget=20_000))
    assert isinstance(res, (Proved, NotProvedWithinLimits)), res
    assert sys.getrecursionlimit() == limit


def test_deep_quantifier_free_sequents_are_decided_at_the_default_recursion_limit():
    # a balanced conjunction of 1,024 atoms on both sides, and a chain of
    # 2,000 implications: decide expands them on its own stack
    level = [Atom(f"p{i}") for i in range(1_024)]
    while len(level) > 1:
        level = [And(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    chain = Atom("p")
    for _ in range(2_000):
        chain = Imp(Atom("q"), chain)
    for s in (Sequent(level, level), Sequent((chain, Atom("q")), (Atom("p"),))):
        res = prove(s, "c")
        assert isinstance(res, Proved) and check_proof(res.proof, res.proof_class)


def _deep_term(leaf=Const("a")) -> App:
    t = leaf
    for _ in range(_DEEP):
        t = App("f", (t,))
    return t


@pytest.mark.parametrize("logic", ["c", "i", "o"])
@pytest.mark.parametrize("goal", ["q", "exists x. p(x)", "p(f^1500(a))"])
def test_deep_terms_are_searched_at_the_default_recursion_limit(goal, logic):
    # the relevance heads and the witness order walk the deep argument, and
    # the classical prover's occurs check, bindings and grounding do; the
    # last goal needs the deep argument opened under its binder
    assert sys.getrecursionlimit() < _DEEP
    if goal == "p(f^1500(a))":
        s = Sequent((Forall(Atom("p", (_deep_term(Bound(0)),)), "x"),), (Atom("p", (_deep_term(),)),))
    else:
        s = Sequent((Atom("p", (_deep_term(),)),), (parse_formula(goal),))
    res = prove(s, logic)
    if goal == "q":
        assert isinstance(res, Refuted if logic in ("c", "i") else NotProvedWithinLimits)
    else:
        assert isinstance(res, Proved)
        assert check_proof(res.proof, res.proof_class)


def _restart_engine(s: Sequent, limits: SearchLimits):
    s = augment(s)
    return _GroundProver(s, limits, uniform=True, restart_goal=s.succ[0]).run()


#: the relations whose states the reference-key property records, run on
#: their engines: prove's valuation settles a classically invalid
#: quantifier-free draw without building one
_KEYED_SEARCHES = (
    lambda s, limits: _GroundProver(s, limits, uniform=False).run(),
    lambda s, limits: _GroundProver(s, limits, uniform=True).run(),
    _restart_engine,
)


def _key_draw(seed: int) -> Sequent:
    """A quantifier-free, in-fragment or Horn sequent with one goal; the
    fragment draws include forall goals and existential clauses, whose
    searches make eigenvariables and use the blank witness."""
    rng = random.Random(seed)
    source = rng.choice(("propositional",) + _FRAGMENTS + ("horn",))
    if source == "propositional":
        s = random_propositional_sequent(rng)
        return Sequent(s.ante, s.succ[:1] or (Atom("q"),))
    if source == "horn":
        return random_horn_sequent(rng)
    return random_fragment_sequent(rng, source, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))


def _recorded_states(s: Sequent) -> list[list[tuple]]:
    """Per search of s, each state that reached _canon as (prover, state,
    counts, (loop key, cache key))."""
    records: list = []
    canon = _GroundProver._canon

    def recording(prover, state, counts):
        keys = canon(prover, state, counts)
        records.append((prover, state, counts, keys))
        return keys

    searches = []
    with mock.patch.object(_GroundProver, "_canon", recording):
        for search in _KEYED_SEARCHES:
            del records[:]
            search(s, SearchLimits(node_budget=400))
            searches.append(list(records))
    return searches


def _recorded_keys(s: Sequent) -> list[list[tuple]]:
    """Per search of s, each state that reached _canon as (new loop key,
    new cache key, reference loop key, reference cache key)."""
    return [
        [(*keys, *reference_state_keys(prover, state, counts)) for prover, state, counts, keys in states]
        for states in _recorded_states(s)
    ]


def _same_partition(xs: list, ys: list) -> bool:
    """Whether xs[i] == xs[j] exactly when ys[i] == ys[j], for every i, j."""
    return len(set(xs)) == len(set(ys)) == len(set(zip(xs, ys)))


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_state_keys_are_equal_exactly_when_the_reference_keys_are(seed):
    for states in _recorded_keys(_key_draw(seed)):
        loop, cache, ref_loop, ref_cache = zip(*states) if states else ((),) * 4
        assert _same_partition(list(loop), list(ref_loop))
        assert _same_partition(list(cache), list(ref_cache))


def test_reference_key_draws_reach_states_with_made_constants():
    # the property above must also compare states whose members hold
    # constants the search made: such antecedents key by their number
    holed = blank = 0
    for seed in range(200):
        for states in _recorded_keys(_key_draw(seed)):
            for _, cache, _, ref_cache in states:
                holed += type(cache[0]) is int
                blank += "!" in ref_cache[0]
    assert holed > 100 and blank > 100


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_state_keys_do_not_depend_on_the_antecedent_memo(seed):
    # keys recomputed after the search with emptied antecedent memos, in
    # reverse order so that holed antecedents get other numbers, partition
    # the states as the keys the search used did; states keyed before the
    # first made constant are now keyed through the memo
    for states in _recorded_states(_key_draw(seed)):
        if not states:
            continue
        prover = states[0][0]
        prover._antes.clear()
        prover._numbers.clear()
        again = [prover._canon(state, counts) for _, state, counts, _ in reversed(states)][::-1]
        loop, cache = zip(*(keys for *_, keys in states))
        loop_again, cache_again = zip(*again)
        assert _same_partition(list(loop), list(loop_again))
        assert _same_partition(list(cache), list(cache_again))


@pytest.mark.parametrize("uniform, restart", [(False, False), (True, False), (True, True)])
def test_made_constants_change_only_the_keys_of_states_that_hold_them(uniform, restart):
    # a repeated eagerly split member, a repeated atom and a tally
    s = parse_sequent("q, q, s | t, s | t, exists x. p(x), forall x. p(x) |- p(a)")
    prover = _GroundProver(s, SearchLimits(), uniform, s.succ[0] if restart else None)
    counts = prover._raised(_NO_COUNTS, "q")
    before = prover._canon(s, counts)
    made = Const(prover._fresh())
    assert prover.made and prover._canon(s, counts) == before
    (kept, _), (members, _, _) = before
    assert members == tuple(f._key for f in s.ante)
    split = parse_formula("s | t")
    assert kept.count(Atom("q")._key) == 1
    assert kept.count(split._key) == (2 if type(split) in prover._eager else 1)
    # once a member holds the made constant, the antecedent keys by number
    holed = s.plus(ante=(Atom("p", (made,)),))
    loop, cache = prover._canon(holed, counts)
    assert type(loop[0]) is int and type(cache[0]) is int
    assert prover._canon(holed, counts) == (loop, cache)
    # its goal's holes continue the antecedent's renaming
    goal = Sequent._presorted(holed.ante, (Atom("r", (made, Const(prover._fresh()))),))
    assert prover._canon(goal, _NO_COUNTS)[0][1][1:] == (0, 1)
    # a repeated member with holes collapses in the loop key unless the mode
    # splits it eagerly, and never in the cache key
    for m in (Atom("q", (made,)), Or(Atom("s", (made,)), Atom("t"))):
        once, twice = holed.plus(ante=(m,)), holed.plus(ante=(m, m))
        (loop1, _), (cache1, _, _) = prover._canon(once, _NO_COUNTS)
        (loop2, _), (cache2, _, _) = prover._canon(twice, _NO_COUNTS)
        assert (loop1 == loop2) is (type(m) not in prover._eager) and cache1 != cache2


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_instance_memo_returns_the_object_instantiate_builds(seed):
    s = _key_draw(seed)
    seen = []
    instance = _GroundProver._instance

    def checked(prover, f, t):
        got = instance(prover, f, t)
        seen.append(got is instantiate(f, t) and got is instance(prover, f, t))
        return got

    with mock.patch.object(_GroundProver, "_instance", checked):
        for search in _KEYED_SEARCHES:
            search(s, SearchLimits(node_budget=400))
    assert all(seen)


def test_instance_memo_keeps_each_variant_s_binder_hints():
    # alpha-variants are equal but print differently, so the memo must not
    # hand one variant's instance to the other
    prover = _GroundProver(parse_sequent("|- q"), SearchLimits(), uniform=False)
    y, z = (Forall(Forall(Atom("r", (Bound(0), Bound(1))), h)) for h in "yz")
    assert y == z and y is not z
    a = Const("a")
    got_y, got_z = prover._instance(y, a), prover._instance(z, a)
    assert got_y is instantiate(y, a) and got_z is instantiate(z, a)
    assert got_y == got_z and got_y is not got_z
    assert prover._instance(y, a) is got_y


#: the relations the memo-cap property runs: the keyed searches and c, each
#: on its engine
_CAPPED_SEARCHES = _KEYED_SEARCHES + (lambda s, limits: _ClassicalProver(s, limits).run(),)


def _capped_run(search, s: Sequent, cap: int) -> tuple:
    """The outcome's kind, its proof document, the nodes left and the
    prunes (None under c) of search on s within 400 nodes, with the memo
    cap at cap."""
    provers = []
    init = _Search.__init__

    def recording(prover, *args):
        provers.append(prover)
        init(prover, *args)

    with mock.patch.object(_Search, "__init__", recording), mock.patch("seqcalc.syntax._MEMO_CAP", cap):
        out = search(s, SearchLimits(node_budget=400))
    (prover,) = provers
    doc = dump_proof(out.proof, out.proof_class) if isinstance(out, Proved) else None
    return type(out).__name__, doc, prover.left, getattr(prover, "prunes", None)


@settings(max_examples=100)
@given(st.integers(0, 10**6))
def test_outcomes_do_not_depend_on_the_memo_cap(seed):
    # cap 1 empties a memo at every store, cap 7 now and then
    for s in (_key_draw(seed), _fragment_draw(_FRAGMENTS[seed % len(_FRAGMENTS)], seed)):
        for search in _CAPPED_SEARCHES:
            want = _capped_run(search, s, _MEMO_CAP)
            assert _capped_run(search, s, 1) == want and _capped_run(search, s, 7) == want


def test_a_long_search_keeps_its_pure_memos_within_the_cap():
    # the restart search of CHANGES.md's depth-first repro, cut at 20,000
    # nodes; its default-cap memos outgrow the small cap
    s = augment(
        parse_sequent(
            "(forall x0. (p(a) & (forall x1. p(x0)))), (forall x0. (forall x1. (s => p(x1)))), "
            "(forall x0. (p(x0) => p(x0))) |- (forall x0. (p(x0) & (q | p(a))))"
        )
    )

    def run(cap: int) -> tuple:
        prover = _GroundProver(s, SearchLimits(node_budget=20_000), uniform=True, restart_goal=s.succ[0])
        with mock.patch("seqcalc.syntax._MEMO_CAP", cap):
            out = prover.run()
        memos = (prover._instances, prover._wit_memo, prover._items, prover._heads, prover._antes)
        return (type(out).__name__, prover.prunes, len(prover.failed), prover.left), max(map(len, memos))

    capped, largest = run(64)
    assert largest <= 64
    full, largest = run(_MEMO_CAP)
    assert largest > 64 and capped == full


def _recorded_relevance(s: Sequent) -> list[tuple]:
    """Each (state, goal, verdict) the ground searches of s checked for
    relevance."""
    records: list = []
    attainable = _GroundProver._attainable

    def recording(prover, state, goal):
        got = attainable(prover, state, goal)
        records.append((state, goal, got))
        return got

    with mock.patch.object(_GroundProver, "_attainable", recording):
        for search in _KEYED_SEARCHES:
            search(s, SearchLimits(node_budget=400))
    return records


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_head_index_agrees_with_the_head_scan(seed):
    for state, goal, got in _recorded_relevance(_key_draw(seed)):
        assert got == reference_attainable(state, goal)


def test_head_index_draws_reach_both_verdicts():
    verdicts = [got for seed in range(100) for *_, got in _recorded_relevance(_key_draw(seed))]
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize(
    "text, attainable",
    [
        ("p(a) |- p(a)", True),
        ("p(a) |- p(b)", False),
        ("p(a) |- p(a, a)", False),
        ("forall x. (q => p(x, b)) |- p(a, b)", True),
        ("forall x. (q => p(x, b)) |- p(a, a)", False),
        ("forall x. p(f(x)) |- p(a)", True),
        ("q => bot |- p(a)", True),
        ("bot => p(a) |- q", False),
        ("(p(a) => q) & r |- p(a)", False),
        ("p(a) | exists x. s(x) |- s(b)", True),
        ("p(a) |- bot", False),
    ],
)
def test_head_index_cases(text, attainable):
    s = parse_sequent(text)
    prover = _GroundProver(s, SearchLimits(), uniform=True)
    assert prover._attainable(s, s.succ[0]) is attainable
    assert reference_attainable(s, s.succ[0]) is attainable
    # the second call reads the memoized index
    assert prover._attainable(s, s.succ[0]) is attainable


def _recorded_eigen_states(s: Sequent) -> list[tuple]:
    """Each (prover, state, substitution) the classical search of s asks
    for the live metavariables of, at an eigenvariable step."""
    records: list = []
    live = _ClassicalProver._live_metas

    def recording(prover, state, subst):
        records.append((prover, state, subst))
        return live(prover, state, subst)

    with mock.patch.object(_ClassicalProver, "_live_metas", recording):
        prove(s, "c", SearchLimits(node_budget=300))
    return records


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_live_metavariables_match_the_resolved_members(seed):
    for prover, state, subst in _recorded_eigen_states(random_quantified_sequent(random.Random(seed))):
        assert prover._live_metas(state, subst) == reference_live_metas(state, subst)


def test_live_metavariable_draws_reach_bound_metavariables():
    # the property above must also compare states where a metavariable is
    # bound, and bound to a term holding further metavariables
    bound = chained = 0
    for seed in range(100):
        for _, state, subst in _recorded_eigen_states(random_quantified_sequent(random.Random(seed))):
            terms = [subst._map[i] for i in metas_in(state) if i in subst._map]
            bound += bool(terms)
            chained += any(metas_in(t) for t in terms)
    assert bound > 100 and chained > 10


def test_unbound_follows_chains_of_bindings():
    x = [Meta(i) for i in range(4)]
    subst = Subst().bind(0, App("f", (x[1],))).bind(1, App("g", (x[2], Const("a")))).bind(3, Const("b"))
    assert subst.unbound({0}) == {2} == metas_in(subst.resolve_term(x[0]))
    assert subst.unbound({0, 1, 2, 3}) == {2}
    assert subst.unbound({3}) == set() and subst.unbound(()) == set()


# ---------------------------------------------------------------------------
# the classical decision's closing-first step


@pytest.mark.parametrize(
    "family,n", [(pigeonhole_sequent, 3), (pigeonhole_sequent, 4)] + [(de_bruijn_sequent, n) for n in range(2, 6)]
)
def test_c_proves_the_pigeonhole_and_de_bruijn_families_at_default_limits(family, n):
    # PH4 has 20 atoms, more than the root valuation takes, so only the
    # search settles it
    out = prove(family(n), "c")
    assert isinstance(out, Proved)
    assert check_proof(out.proof, out.proof_class)


@pytest.mark.parametrize(
    "strengthened,text,principal",
    [
        # a one-premise rule, wherever it is, before any branching one
        (False, "q | s |- p => t", "p => t"),
        # top on the right
        (False, "q | s, r => t |- top & p", "top & p"),
        # bottom on the left over a succedent
        (False, "q | s, t | bot |- p", "t | bot"),
        # an atom already on the other side, either way
        (False, "q | s, t | r |- r", "t | r"),
        (False, "q | s, r => t, r |- p", "r => t"),
        # a succedent over a bottom already on the left
        (False, "q | s, r => t, bot |-", "r => t"),
        # a compound formula already on the other side, under strengthened
        # axioms only
        (True, "q | s, r => q & s |- q & s", "r => q & s"),
        (False, "q | s, r => q & s |- q & s", "q | s"),
        (True, "q | s, p | t |- (p | t) & r", "(p | t) & r"),
        (False, "q | s, p | t |- (p | t) & r", "p | t"),
        # a tie goes to the first candidate
        (False, "q | s, t | r |- p", "q | s"),
    ],
)
def test_decide_takes_the_step_whose_premises_close_first(strengthened, text, principal):
    s = parse_sequent(text)
    step = search._closing_first_step(s, strengthened)
    assert format_formula(step[3]) == principal
    assert step == reference_closing_first_step(s, strengthened)


#: leaves enough for draws with more atoms than the root valuation takes
_MANY_ATOMS = tuple(Atom(f"p{i}") for i in range(16)) + (Top(), Bot())


def _atoms(s: Sequent) -> set[Atom]:
    todo, atoms = list(s.ante + s.succ), set()
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            atoms.add(f)
        elif isinstance(f, (And, Or, Imp)):
            todo += (f.left, f.right)
    return atoms


def _decide_draws() -> list[Sequent]:
    """2,000 of the benchmark's quantifier-free draws; 1,000 of the tests'
    own, whose compound subformulas may repeat, every third with its
    succedent dropped; then 40 draws with 13 to 16 atoms."""
    rng = random.Random(35)
    draws = [parse_sequent(show_sequent(*random_prop_sequent(rng, 0.4))) for _ in range(2_000)]
    for k in range(1_000):
        s = random_propositional_sequent(rng, 8)
        draws.append(Sequent(s.ante, ()) if k % 3 == 0 else s)
    rng = random.Random(12)
    while len(draws) < 3_040:
        s = random_propositional_sequent(rng, 24, _MANY_ATOMS)
        if len(_atoms(s)) > 12:
            draws.append(s)
    return draws


def _solve_draws() -> list[Sequent]:
    """200 first-order draws over function terms, then 50 fragment draws of
    each fragment."""
    draws = [random_quantified_sequent(random.Random(seed)) for seed in range(200)]
    return draws + [_fragment_draw(fragment, seed) for fragment in _FRAGMENTS for seed in range(50)]


@pytest.mark.parametrize("strengthened", [False, True])
def test_decide_takes_the_step_that_building_every_premise_ranks_first(strengthened):
    limits = SearchLimits(strengthened_axioms=strengthened)
    cheap = search._closing_first_step
    steps = []

    def checked(s, strong):
        step = cheap(s, strong)
        assert strong is strengthened
        assert step == reference_closing_first_step(s, strong), format_sequent(s)
        steps.append(step)
        return step

    with mock.patch.object(search, "_closing_first_step", checked):
        for s in _decide_draws():
            _ClassicalProver(s, limits).decide(s)
        # solve takes the same step, on sequents that hold metavariables
        for s in _solve_draws():
            _ClassicalProver(s, SearchLimits(node_budget=300, strengthened_axioms=strengthened)).run()
    # the draws reach every rule the classical prover takes, eigenvariable
    # rules too, and sequents it cannot expand
    assert {
        None,
        RuleId.AND_L_STAR,
        RuleId.OR_L,
        RuleId.IMP_L_STAR,
        RuleId.AND_R,
        RuleId.EXISTS_L,
        RuleId.FORALL_R,
    } <= {step and step[0] for step in steps}


def test_decide_alone_refutes_exactly_the_truth_table_invalid_draws_with_a_succedent():
    verdicts = []
    for s in _decide_draws():
        # straight to the decision, past the root valuation
        proof = _ClassicalProver(s, SearchLimits()).decide(s)
        # bottom closes only by bot-r on a succedent member, so a sequent
        # with no succedent keeps an open branch
        assert (proof is not None) is (bool(s.succ) and truth_table_valid(s)), format_sequent(s)
        if proof is not None:
            assert proof.conclusion == s and check_proof(proof, CLASSICAL_STAR)
        verdicts.append((len(_atoms(s)) > 12, proof is not None))
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(verdicts)


# ---------------------------------------------------------------------------
# the classical prover's failure memo against the un-memoized search


def _classical_run(prover) -> tuple:
    """The outcome's kind, its proof document and the nodes left after run."""
    out = prover.run()
    doc = dump_proof(out.proof, out.proof_class) if isinstance(out, Proved) else None
    return type(out).__name__, doc, prover.left


@settings(max_examples=300)
@given(st.integers(0, 10**6), st.integers(20, 250))
def test_classical_memos_match_the_unmemoized_search(seed, budget):
    # in-fragment draws, and first-order draws whose eigenvariables hold
    # bound metavariables; the budget cuts searches at every point, also
    # inside a memoized failure, where the charge must run out exactly
    # where the search would
    if seed % 3:
        s = _fragment_draw(_FRAGMENTS[seed % len(_FRAGMENTS)], seed)
    else:
        s = random_quantified_sequent(random.Random(seed))
    limits = SearchLimits(node_budget=budget)
    assert _classical_run(_ClassicalProver(s, limits)) == _classical_run(reference_classical_prover(s, limits))


#: sequents on which the memo hits, each with a neighbour the memo must tell
#: apart: under another binding of the second premise's metavariable
#: (first two), of a vacuous premise's metavariable (second), under other
#: tallies (third), a failure that made an eigenvariable, which shifts
#: the names of those made after it (fourth), and a second premise that
#: failed under one rule application and recurs under another, where it is
#: skipped (fifth; budgets from 111 to 153 run out inside a skipped failure)
_MEMO_HITS = (
    "p(a), p(b), q(b) |- exists x. (p(x) & q(x))",
    "p(a), p(b) |- exists x. (p(x) & ((forall y. q(b)) => q(x)))",
    "forall x. q, forall x. (q | t), forall x. u |- s",
    "p(a), p(b), forall w. (s(w) => s(f(w))), s(a) |- forall v. (exists x. (p(x) & (forall y. r(y)))) | s(f(f(a)))",
    "q, p(b) |- exists x0. (p(b) & (exists x1. bot))",
)


@pytest.mark.parametrize("text", _MEMO_HITS)
def test_classical_memos_tell_apart_what_the_search_does(text):
    s = parse_sequent(text)
    for budget in (10_000, *range(20, 400, 7)):
        limits = SearchLimits(node_budget=budget)
        assert _classical_run(_ClassicalProver(s, limits)) == _classical_run(reference_classical_prover(s, limits))


@pytest.mark.parametrize(
    "text",
    [
        # each witness the first conjunct finds leaves the second as it was
        "p(a), p(b) |- (exists x. p(x)) & r",
        # vacuous instantiations reach one premise in either order
        "forall x. q, forall y. s |- r",
    ],
)
def test_memoized_failures_are_charged_at_their_full_size(text):
    s = parse_sequent(text)
    limits = SearchLimits(node_budget=10_000)
    real = 0
    tick = _Search.tick

    def counting(search):
        nonlocal real
        real += 1
        tick(search)

    prover = _ClassicalProver(s, limits)
    with mock.patch.object(_Search, "tick", counting):
        prover.run()
    reference = reference_classical_prover(s, limits)
    assert _classical_run(reference)[0] == "NotProvedWithinLimits"
    charged = limits.node_budget - prover.left
    assert real < charged == limits.node_budget - reference.left
    assert prover.next_meta == reference.next_meta
    # a skipped failure counts the refusals of the search it stands for
    assert prover.refused == reference.refused > 0
    # a budget that runs out inside a memoized failure leaves no nodes
    for budget in range(real, charged + 1):
        cut = SearchLimits(node_budget=budget)
        assert _classical_run(_ClassicalProver(s, cut)) == _classical_run(reference_classical_prover(s, cut))


# ---------------------------------------------------------------------------
# the classical prover's rounds of quantifier multiplicity


def _spent(text: str, quantifier_budget: int) -> tuple:
    """The classical outcome's kind, the nodes the search spent and the
    instantiations it refused."""
    prover = _ClassicalProver(parse_sequent(text), SearchLimits(quantifier_budget=quantifier_budget))
    out = prover.run()
    return type(out).__name__, prover.limits.node_budget - prover.left, prover.refused


@pytest.mark.parametrize("text", ["p(a) |- forall x. p(x)", "exists x. p(x) |- p(a)"])
def test_a_round_that_refuses_no_instantiation_ends_the_search(text):
    assert _spent(text, 3) == _spent(text, 1) == ("NotProvedWithinLimits", 2, 0)


def test_a_round_that_refuses_an_instantiation_deepens():
    text = "forall x. (p(x) => p(f(x))), p(a) |- p(b)"
    runs = [_spent(text, budget) for budget in (1, 2, 3)]
    assert [kind for kind, _, _ in runs] == ["NotProvedWithinLimits"] * 3
    assert 0 < runs[0][2] and runs[0][1] < runs[1][1] < runs[2][1]


@settings(max_examples=200)
@given(st.integers(0, 10**6))
def test_a_round_that_refuses_nothing_leaves_no_proof_to_a_higher_multiplicity(seed):
    # the round stop keeps every outcome: a multiplicity whose search
    # fails without refusing an instantiation fails at every higher one
    if seed % 3:
        s = _fragment_draw(_FRAGMENTS[seed % len(_FRAGMENTS)], seed)
    else:
        s = random_quantified_sequent(random.Random(seed))
    limits = SearchLimits(node_budget=2_000)

    def first(mult: int):
        prover = _ClassicalProver(s, limits)
        try:
            return next(prover.solve(s, Subst(), {}, mult), None), prover.refused
        except _OutOfNodes:
            return "out of nodes", None

    for mult in (1, 2):
        found, refused = first(mult)
        if found is not None:
            return
        if not refused:
            for higher in range(mult + 1, 4):
                assert first(higher)[0] in (None, "out of nodes")
            return


# ---------------------------------------------------------------------------
# grounding and made names


def _conclusions(p: Proof) -> list[Sequent]:
    return [p.conclusion, *(s for q in p.premises for s in _conclusions(q))]


@pytest.mark.parametrize("text", ["|- forall x. (p(x) => p(x))", "p(a), q => r |- p(a) & (q => r)"])
def test_grounding_a_skeleton_without_metavariables_keeps_its_sequents(text):
    s = parse_sequent(text)
    prover = _ClassicalProver(s, SearchLimits())
    subst, skel = next(prover.solve(s, Subst(), {}, 1))
    proof = prover._ground(skel, subst)
    assert check_proof(proof, CLASSICAL_STAR)
    kept, skeleton = _conclusions(proof), _conclusions(skel)
    assert len(kept) == len(skeleton) > 1
    assert all(a is b for a, b in zip(kept, skeleton))


def test_grounding_keeps_the_meta_free_sequents_and_sides_of_a_skeleton():
    s = parse_sequent("forall x. p(x) |- p(a)")
    prover = _ClassicalProver(s, SearchLimits())
    subst, skel = next(prover.solve(s, Subst(), {}, 1))
    proof = prover._ground(skel, subst)
    assert check_proof(proof, CLASSICAL_STAR)
    # the root holds no metavariable; its premise's antecedent holds p(X0)
    assert proof.conclusion is skel.conclusion
    (premise,), (skel_premise,) = proof.premises, skel.premises
    assert metas_in(skel_premise.conclusion) and not metas_in(premise.conclusion)
    assert premise.conclusion.succ is skel_premise.conclusion.succ
    assert premise.conclusion.ante is not skel_premise.conclusion.ante


def test_a_classical_search_collects_the_roots_symbols_once(monkeypatch):
    calls = []
    collect = search._symbols_everywhere
    monkeypatch.setattr(search, "_symbols_everywhere", lambda s: calls.append(s) or collect(s))
    s = parse_sequent("|- forall x. (p(x) => p(x))")
    prover = _ClassicalProver(s, SearchLimits())
    out = prover.run()
    # an eigenvariable (under e) and the blank (under c) were made
    assert isinstance(out, Proved) and out.proof.eigen == "e0"
    assert prover.made == {"e0", "c0"} and set(prover._prefixes) == {"e", "c"}
    assert calls == [s]


def test_a_made_constant_keeps_clear_of_a_root_symbol_of_its_form():
    # the root holds c0, so the blank witness takes the prefix cc
    out = prove(parse_sequent("c0 |- exists x. top"), "i")
    assert isinstance(out, Proved) and out.proof.witness == Const("cc0")
    assert check_proof(out.proof, out.proof_class)


def test_a_root_name_ending_in_a_prefix_and_digits_reserves_the_prefix():
    # c1's key lies inside acc1's, so the hole finder under c would match
    # inside a root name
    assert _reserved_prefix("c", {"acc1"}) != "c"
    assert _reserved_prefix("c", {"acc1", "c", "c1x"}) == "ccc"
    assert _reserved_prefix("e", {"e", "ex1"}) == "e"


def test_an_item_holes_only_the_made_constants():
    s = parse_sequent("p(acc1) |- exists x. p(x)")
    prover = _GroundProver(s, SearchLimits(), uniform=False)
    made = Const(prover._fresh())
    acc1 = Const("acc1")
    root = Atom("p", (acc1,))
    assert prover._item(root) == (root._key, (), False)
    text, holes, _ = prover._item(Atom("r", (acc1, made, made)))
    assert holes == (made.name,) and acc1._key in text and made._key not in text
    # equal up to the made constant's name, equal text
    other = Const(prover._fresh())
    assert prover._item(Atom("r", (acc1, other, other)))[0] == text
    assert prover._item(Atom("r", (acc1, made, other)))[0] != text


def test_deep_terms_unify_and_resolve_at_the_default_recursion_limit():
    deep, pattern = _deep_term(), Meta(0)
    for _ in range(_DEEP):
        pattern = App("f", (pattern,))
    subst = unify(pattern, deep, Subst())
    assert subst is not None and subst.resolve_term(Meta(0)) == Const("a")
    assert subst.resolve_term(pattern) is deep
    assert unify(Meta(0), App("g", (pattern,)), Subst()) is None
    # a strengthened closure unifies two members nested past the limit
    body = Atom("p", (Bound(0),))
    for _ in range(_DEEP):
        body = neg(body)
    q = Forall(body, "x")
    empty = Subst()
    assert unify_formulas(q, q, empty) is empty
    res = prove(Sequent((q,), (q,)), "c", SearchLimits(strengthened_axioms=True))
    assert isinstance(res, Proved), res
    assert check_proof(res.proof, res.proof_class, strengthened_axioms=True)


# ---------------------------------------------------------------------------
# Herbrandization


def test_herbrandize_strips_a_lone_strong_quantifier():
    s = herbrandize(parse_sequent("|- forall x. p(x)"))
    assert len(s.succ) == 1
    f = s.succ[0]
    assert isinstance(f, Atom) and f.pred == "p"
    (arg,) = f.args
    assert isinstance(arg, Const)


def test_herbrandize_threads_weak_variables_into_the_witness():
    s = herbrandize(parse_sequent("|- exists y. forall x. r(x, y)"))
    f = s.succ[0]
    assert isinstance(f, Exists)
    body = f.body
    assert isinstance(body, Atom) and body.pred == "r"
    first, second = body.args
    assert second == Bound(0)
    assert isinstance(first, App) and first.args == (Bound(0),)


def test_herbrandize_shifts_the_witness_by_the_binders_below_it():
    # x's witness sits under z's binder, so y, its argument, is Bound(1)
    (f,) = herbrandize(parse_sequent("|- exists y. forall x. exists z. r(x, z, y)")).succ
    assert isinstance(f, Exists) and isinstance(f.body, Exists)
    assert f.body.body.args == (App("h0", (Bound(1),)), Bound(0), Bound(1))


def test_herbrandize_leaves_weak_only_sequents_alone():
    s = parse_sequent("forall x. p(x) |- exists y. p(y)")
    assert herbrandize(s) == s


def test_herbrandize_binds_no_free_variable_of_the_sequent():
    # the weak quantifier keeps its nameless binder, so Var("_w0") stays
    # free, and the root is not valuated
    free = Atom("r", (Bound(0), Var("_w0")))
    s = Sequent((Forall(free, "x"),), (parse_formula("r(a, a)"),))
    assert herbrandize(s) == s
    assert _classically_valid(s) is None


def test_herbrandize_handles_antecedent_strong_quantifiers():
    s = herbrandize(parse_sequent("exists x. p(x) |- q"))
    (f,) = s.ante
    assert isinstance(f, Atom)
    (arg,) = f.args
    assert isinstance(arg, Const)


def test_herbrandized_verdicts_agree_classically():
    for text in [
        "|- (exists x. p(x)) => exists x. p(x)",
        "forall x. p(x) |- p(a) & p(b)",
        "exists x. p(x), forall y. (p(y) => q) |- q",
        "|- forall x. exists y. r(x, y)",
    ]:
        s = parse_sequent(text)
        direct = prove(s, "c")
        via = prove(herbrandize(s), "c")
        assert isinstance(direct, Proved) == isinstance(via, Proved), text


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_herbrandize_matches_the_recursive_reference(seed):
    s = random_quantified_sequent(random.Random(seed))
    got, want = herbrandize(s), reference_herbrandize(s)
    # members are interned with their binder hints: `is` compares those too
    assert len(got.ante) == len(want.ante) and len(got.succ) == len(want.succ)
    assert all(a is b for a, b in zip(got.ante + got.succ, want.ante + want.succ))


def test_herbrandize_takes_a_member_nested_past_the_recursion_limit():
    assert sys.getrecursionlimit() < 2000
    f = Atom("p", (Bound(0),))
    for _ in range(2000):
        f = neg(f)
    (g,) = herbrandize(Sequent((), (Forall(f, "x"),))).succ
    assert g is instantiate(Forall(f, "x"), Const("h0"))


# ---------------------------------------------------------------------------
# unification


def test_unify_decomposes_structurally():
    from seqcalc.syntax import Meta

    x, y = Meta(1), Meta(2)
    a = Atom("p", (x, App("f", (Const("a"),))))
    b = Atom("p", (App("f", (y,)), App("f", (y,))))
    subst = unify_formulas(a, b, Subst())
    assert subst is not None
    assert subst.resolve_term(x) == App("f", (Const("a"),))
    assert subst.resolve_term(y) == Const("a")


def test_unify_occurs_check():
    from seqcalc.syntax import Meta

    x = Meta(1)
    assert unify(x, App("f", (x,)), Subst()) is None


def test_unify_refuses_a_term_with_a_loose_bound_variable():
    assert unify(Meta(0), App("f", (Bound(0),)), Subst()) is None


def test_unify_identical_constants():
    subst = unify(Const("a"), Const("a"), Subst())
    assert subst is not None
    assert subst.resolve_term(Const("a")) == Const("a")


def test_unify_clash():
    assert unify(Const("a"), Const("b"), Subst()) is None


def test_unify_formulas_decomposes_a_compound_pair_with_a_metavariable():
    x, b = Meta(1), Const("b")
    left = And(Atom("p", (x,)), Exists(Atom("r", (Bound(0), x)), "y"))
    right = And(Atom("p", (b,)), Exists(Atom("r", (Bound(0), b)), "z"))
    subst = unify_formulas(left, right, Subst())
    assert subst is not None and subst.resolve_term(x) == b
    # two connectives over the same metavariable do not unify
    assert unify_formulas(And(Atom("p", (x,)), Atom("q")), Or(Atom("p", (x,)), Atom("q")), Subst()) is None


# ---------------------------------------------------------------------------
# properties


def test_quantifier_free_detector():
    assert is_quantifier_free_sequent(parse_sequent("q & s |- q"))
    assert not is_quantifier_free_sequent(parse_sequent("forall x. p(x) |- q"))


@given(st.integers(0, 10_000))
def test_classical_propositional_matches_truth_tables(seed):
    s = random_propositional_sequent(random.Random(seed))
    res = prove(s, "c")
    valid = truth_table_valid(s)
    if valid:
        assert isinstance(res, Proved), format_sequent(s)
    else:
        assert isinstance(res, Refuted), format_sequent(s)


@given(st.integers(0, 10_000))
def test_propositional_relation_inclusions(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    s = Sequent(s.ante, s.succ[:1] or (Atom("q"),))
    o_res = prove(s, "o")
    i_res = prove(s, "i")
    c_res = prove(s, "c")
    if isinstance(o_res, Proved):
        assert isinstance(i_res, Proved)
    if isinstance(i_res, Proved):
        assert isinstance(c_res, Proved)
    if isinstance(c_res, Refuted):
        assert isinstance(i_res, Refuted)


@given(st.integers(0, 10_000))
def test_goal_directed_and_restart_proofs_check(seed):
    rng = random.Random(seed)
    s = random_propositional_sequent(rng)
    s = Sequent(s.ante, s.succ[:1] or (Atom("q"),))
    res = prove(s, "o")
    if isinstance(res, Proved):
        assert check_proof(res.proof, res.proof_class, strengthened_axioms=True)
    res = prove_restart(s)
    if isinstance(res, Proved):
        assert check_proof(res.proof, res.proof_class, strengthened_axioms=True)
        assert isinstance(prove(s, "c"), Proved)


#: soundness across engines is checked at this budget; the draws are small,
#: so each search ends well within it
_SOUNDNESS_LIMITS = SearchLimits(node_budget=20_000)


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_no_engine_proves_a_horn_draw_that_the_classical_prover_does_not(seed):
    # o within i within c on first-order states that hold made constants;
    # c => o is not asserted: depth first, o can spend its budget where c
    # proves
    s = random_horn_sequent(random.Random(seed))
    o_res, i_res, c_res = outs = [prove(s, logic, _SOUNDNESS_LIMITS) for logic in ("o", "i", "c")]
    if isinstance(o_res, Proved):
        assert isinstance(i_res, Proved), format_sequent(s)
    if isinstance(i_res, Proved):
        assert isinstance(c_res, Proved), format_sequent(s)
    for res in outs:
        if isinstance(res, Proved):
            assert check_proof(res.proof, res.proof_class), format_sequent(s)


@settings(max_examples=2_000)
@given(st.integers(0, 10**6))
def test_no_engine_proves_what_the_classical_prover_does_not(seed):
    # o within i within c, and a restart proof of the augmentation is
    # classically sound
    s = random_goal_sequent(random.Random(seed))
    o_res, i_res, c_res = (prove(s, logic, _SOUNDNESS_LIMITS) for logic in ("o", "i", "c"))
    if isinstance(o_res, Proved):
        assert isinstance(i_res, Proved), format_sequent(s)
    if isinstance(i_res, Proved):
        assert isinstance(c_res, Proved), format_sequent(s)
    if isinstance(prove_restart(augment(s), _SOUNDNESS_LIMITS), Proved):
        assert isinstance(c_res, Proved), format_sequent(s)


# ---------------------------------------------------------------------------
# the paper's reductions on in-fragment draws

#: the fragments whose guarantee starts from a classical proof
_CLASSICAL_FRAGMENTS = ("f1", "f2", "f3", "f4", "lp-cls")
#: a classical proof within this budget is the premise of each reduction
_CLASSICAL_LIMITS = SearchLimits(node_budget=250)
#: where the reduced search is retried: the ground engine goes depth first,
#: so a shallow bound finds a short proof a deep one would spend its nodes
#: before reaching
_RETRY_LIMITS = tuple(SearchLimits(node_budget=20_000, depth=d) for d in (6, 12, 24))


def _fragment_draw(fragment: str, seed: int) -> Sequent:
    rng = random.Random(seed)
    return random_fragment_sequent(rng, fragment, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))


def _reduced_search(fragment: str, s: Sequent, limits: SearchLimits):
    """The search the fragment's guarantee promises a proof under: i for
    F1-F4, restart on the augmented sequent for LP_CLS."""
    if fragment == "lp-cls":
        return prove_restart(augment(s), limits)
    return prove(s, "i", limits)


@settings(max_examples=200)
@given(st.sampled_from(_CLASSICAL_FRAGMENTS), st.integers(0, 10**6))
def test_classically_provable_fragment_sequents_are_proved_by_the_reduction(fragment, seed):
    s = _fragment_draw(fragment, seed)
    if not isinstance(prove(s, "c", _CLASSICAL_LIMITS), Proved):
        return
    for limits in _RETRY_LIMITS:
        out = _reduced_search(fragment, s, limits)
        if isinstance(out, Proved):
            assert check_proof(out.proof, out.proof_class)
            return
    pytest.fail(f"{fragment}: c proves {format_sequent(s)}, the reduced search does not")


def test_fragment_draws_are_mostly_classically_provable():
    # the property above holds vacuously on a draw that c does not prove
    for fragment in _CLASSICAL_FRAGMENTS:
        outs = [prove(_fragment_draw(fragment, seed), "c", _CLASSICAL_LIMITS) for seed in range(100)]
        proved = sum(isinstance(out, Proved) for out in outs)
        assert proved > 50, fragment


#: an intuitionistic proof within this budget is the premise of LP_INT, and
#: the uniform search gets the same budget
_LP_INT_LIMITS = SearchLimits(node_budget=20_000)


@settings(max_examples=400)
@given(st.integers(0, 10**6))
def test_intuitionistically_provable_lp_int_sequents_are_proved_uniformly(seed):
    # LP_INT needs an intuitionistic proof: classical provability is not
    # enough, as a classically valid hereditary Harrop sequent may have no
    # uniform proof
    s = _fragment_draw("lp-int", seed)
    if not isinstance(prove(s, "i", _LP_INT_LIMITS), Proved):
        return
    out = prove(s, "o", _LP_INT_LIMITS)
    assert isinstance(out, Proved), format_sequent(s)
    assert out.proof_class == UNIFORM
    assert check_proof(out.proof, UNIFORM)


def test_lp_int_draws_are_mostly_intuitionistically_provable():
    # the property above holds vacuously on a draw that i does not prove
    outs = [prove(_fragment_draw("lp-int", seed), "i", _LP_INT_LIMITS) for seed in range(100)]
    assert sum(isinstance(out, Proved) for out in outs) > 50


#: every quantifier-free goal draw is decided within this budget (checked
#: on 50,000 draws, none needing more than 200 nodes)
_G4IP_LIMITS = SearchLimits(node_budget=1_000)
_TAGS = {And: "and", Or: "or", Imp: "imp"}


def _benchmark_formula(f) -> tuple:
    """A quantifier-free formula as perfbench's formula tuple."""
    if isinstance(f, Atom):
        return ("atom", format_formula(f))
    if isinstance(f, Top):
        return ("top",)
    if isinstance(f, Bot):
        return ("bot",)
    return (_TAGS[type(f)], _benchmark_formula(f.left), _benchmark_formula(f.right))


@settings(max_examples=1000)
@given(st.integers(0, 10**6))
def test_i_proves_a_quantifier_free_draw_exactly_when_g4ip_says_it_is_valid(seed):
    s = random_goal_sequent(random.Random(seed))
    out = prove(s, "i", _G4IP_LIMITS)
    assert isinstance(out, (Proved, Refuted)), format_sequent(s)
    valid = G4ip().valid(tuple(map(_benchmark_formula, s.ante)), _benchmark_formula(s.succ[0]))
    assert isinstance(out, Proved) == valid, format_sequent(s)


# ---------------------------------------------------------------------------
# failure subsumption and leaf states against the earlier visit


def _outcome(out) -> tuple:
    """An outcome's kind and, for a proof, its document."""
    doc = dump_proof(out.proof, out.proof_class) if isinstance(out, Proved) else None
    return type(out).__name__, doc


def _goal_draw(seed: int) -> Sequent:
    return random_goal_sequent(random.Random(seed))


@settings(max_examples=1000)
@given(st.integers(0, 10**6))
def test_i_and_o_give_the_reference_visit_s_outcomes(seed):
    # at default limits both searches run to the end on quantifier-free
    # input, so a skipped state may only be one that fails
    s = _goal_draw(seed)
    for uniform, logic in ((False, "i"), (True, "o")):
        want = _outcome(reference_ground_prover(s, SearchLimits(), uniform).run())
        assert _outcome(prove(s, logic)) == want, (logic, format_sequent(s))


@settings(max_examples=1000)
@given(st.integers(0, 10**6))
def test_a_cut_search_keeps_every_reference_verdict(seed):
    # within 250 nodes a search that skips subsumed states may get further
    # than the reference, and only that: a verdict the reference reaches
    # comes back as it is, and one it does not may be reached, as at
    # default limits
    s = _goal_draw(seed)
    limits = SearchLimits(node_budget=250)
    for uniform, logic in ((False, "i"), (True, "o")):
        want = _outcome(reference_ground_prover(s, limits, uniform).run())
        got = _outcome(prove(s, logic, limits))
        if want[0] == "NotProvedWithinLimits" and got != want:
            assert got == _outcome(prove(s, logic)), (logic, format_sequent(s))
        else:
            assert got == want, (logic, format_sequent(s))


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_restart_searches_spend_the_reference_visit_s_nodes(seed):
    # no failure subsumes another under a restart goal, where the search is
    # not monotone in its antecedent (see the xfail test below): restart
    # spends what the exact failure cache alone spends
    s = _goal_draw(seed)
    limits = SearchLimits(node_budget=2_000)
    for root in (s, augment(s)):
        got = _GroundProver(root, limits, True, root.succ[0])
        want = reference_ground_prover(root, limits, True, root.succ[0])
        assert (_outcome(got.run()), got.left) == (_outcome(want.run()), want.left), format_sequent(root)


def test_goal_draws_repeat_compound_members_and_reach_every_verdict():
    # the properties above must also see repeated compound antecedent
    # members, and proofs and failures of both searches
    draws = [_goal_draw(seed) for seed in range(300)]
    repeated = sum(
        any(type(f) in (And, Or, Imp) and s.ante.count(f) > 1 for f in s.ante) for s in draws
    )
    assert repeated > 30
    kinds = {(logic, type(prove(s, logic)).__name__) for s in draws for logic in "io"}
    assert {("i", "Proved"), ("i", "Refuted"), ("o", "Proved"), ("o", "NotProvedWithinLimits")} <= kinds


def _nodes(s: Sequent, uniform: bool, restart_goal=None, limits=SearchLimits()) -> tuple[str, int]:
    """The outcome's kind and the nodes a ground search of s spent."""
    prover = _GroundProver(s, limits, uniform, restart_goal)
    out = prover.run()
    return type(out).__name__, limits.node_budget - prover.left


def _reference_nodes(s: Sequent, uniform: bool) -> int:
    prover = reference_ground_prover(s, SearchLimits(), uniform)
    prover.run()
    return SearchLimits().node_budget - prover.left


def test_subsumption_cuts_the_o_search_over_kept_conjunctions():
    # o keeps every antecedent conjunction for the backchain, so without
    # subsumption it walks the subsets of the conjuncts it can add; i
    # refutes the sequent in 8 nodes
    s = parse_sequent("s & (t | top | t), s & (s => r(a) => r(a)), (r(a) | q & q) & q |- t")
    assert _nodes(s, uniform=False) == ("Refuted", 8)
    assert _reference_nodes(s, uniform=True) == 853
    kind, nodes = _nodes(s, uniform=True)
    assert kind == "NotProvedWithinLimits" and nodes <= 60


#: the nodes of (i, o, restart, augment then restart) within 5,000 nodes on
#: corpus entries where no failure subsumes another, as the exact failure
#: cache alone spends them: first-order input, and every restart search.
#: Quantifier-free i and o searches (None) may spend fewer
_CORPUS_NODES = {
    "horn-chain": (15, 16, 18, 71),
    "drop-forall-or": (35, 28, 96, 90),
    "aug-forall-or-swap": (269, 855, 1135, 1439),
    "shift-forall-or": (182, 169, 4638, 5000),
    "distrib-and-or": (None, None, 31, 33),
    "peirce-formula": (None, None, 7, 10),
}


@pytest.mark.parametrize("name", sorted(_CORPUS_NODES))
def test_searches_without_subsumption_spend_the_exact_cache_s_nodes(name, corpus_by_name):
    s = corpus_by_name[name].sequent
    a = augment(s)
    limits = SearchLimits(node_budget=5_000)
    runs = ((s, False, None), (s, True, None), (s, True, s.succ[0]), (a, True, a.succ[0]))
    for want, (root, uniform, goal) in zip(_CORPUS_NODES[name], runs):
        if want is not None:
            assert _nodes(root, uniform, goal, limits)[1] == want, (uniform, goal)


#: a sequent prove_restart proves, and the same with a second copy of the
#: disjunction `bot & top | bot`, which it does not prove; i and o prove both
_RESTART_MONOTONE = parse_sequent(
    "top, s, s, top & (q => q), bot & top | bot, q => q, (bot & top | bot => bot) => bot |- bot & top | bot => bot"
)


def test_restart_proves_the_sequent_with_one_copy_of_the_disjunction():
    s = _RESTART_MONOTONE
    doubled = s.plus(ante=(parse_formula("bot & top | bot"),))
    assert isinstance(prove_restart(s), Proved)
    for x in (s, doubled):
        assert isinstance(prove(x, "i"), Proved) and isinstance(prove(x, "o"), Proved)


@pytest.mark.xfail(strict=True, reason="restart search is not monotone under a repeated antecedent disjunction")
def test_restart_proves_the_sequent_with_two_copies_of_the_disjunction():
    doubled = _RESTART_MONOTONE.plus(ante=(parse_formula("bot & top | bot"),))
    assert isinstance(prove_restart(doubled), Proved)


# ---------------------------------------------------------------------------
# classical valuation of quantifier-free roots

#: the propositional leaves with a ground atom of arity one
_VALUATION_LEAVES = PROP_LEAVES + (Atom("r", (Const("a"),)),)


def _valuation_draw(seed: int) -> Sequent:
    return random_propositional_sequent(random.Random(seed), 7, _VALUATION_LEAVES)


@settings(max_examples=300)
@given(st.integers(0, 10**6))
def test_the_valuation_agrees_with_truth_tables_and_the_engines(seed):
    s = _valuation_draw(seed)
    valid = _classically_valid(s)
    assert valid is truth_table_valid(s), format_sequent(s)
    # the engines, run directly, never see the valuation
    engine = _ClassicalProver(s, SearchLimits()).run()
    assert type(engine) is (Proved if valid else Refuted)
    assert _signature(prove(s, "c")) == _signature(engine)
    one = Sequent(s.ante, s.succ[:1])
    if _classically_valid(one) is False:
        assert isinstance(_GroundProver(one, SearchLimits(), uniform=False).run(), Refuted)
        limits = SearchLimits(node_budget=5_000)
        o_engine = _GroundProver(one, limits, uniform=True).run()
        restart_engine = _GroundProver(one, limits, uniform=True, restart_goal=one.succ[0]).run()
        assert not isinstance(o_engine, Proved) and not isinstance(restart_engine, Proved)
        assert isinstance(prove(one, "i"), Refuted)
        assert isinstance(prove(one, "o"), NotProvedWithinLimits)
        assert isinstance(prove_restart(one), NotProvedWithinLimits)


def test_valuation_draws_reach_r_a_the_units_and_both_verdicts():
    draws = [_valuation_draw(seed) for seed in range(300)]
    texts = " ".join(map(format_sequent, draws))
    assert all(leaf in texts for leaf in ("r(a)", "top", "bot"))
    verdicts = [_classically_valid(s) for s in draws]
    assert 50 < verdicts.count(False) < 250 and None not in verdicts


@pytest.mark.parametrize("search", ["i", "o", "restart"])
def test_an_invalid_multi_succedent_sequent_still_raises(search):
    s = parse_sequent("q |- s, t")
    assert _classically_valid(s) is False
    with pytest.raises(ValueError, match="exactly one succedent"):
        prove_restart(s) if search == "restart" else prove(s, search)


def test_a_refuted_root_spends_no_nodes():
    # at no budget the engines give up, but the valuation still refutes:
    # c and i now return Refuted where they returned NotProvedWithinLimits
    s = parse_sequent("q |- s")
    none = SearchLimits(node_budget=0)
    assert isinstance(_ClassicalProver(s, none).run(), NotProvedWithinLimits)
    assert isinstance(_GroundProver(s, none, uniform=False).run(), NotProvedWithinLimits)
    assert isinstance(prove(s, "c", none), Refuted)
    assert isinstance(prove(s, "i", none), Refuted)
    # o and restart report no proof, never a refutation
    assert isinstance(prove(s, "o", none), NotProvedWithinLimits)
    assert isinstance(prove_restart(s, none), NotProvedWithinLimits)
    # a valid root is searched as before
    assert isinstance(prove(parse_sequent("q |- q"), "c", none), NotProvedWithinLimits)


@pytest.mark.parametrize("atoms, searched", [(12, False), (13, True)])
def test_more_atoms_than_the_bound_are_searched(atoms, searched):
    s = Sequent(tuple(Atom(f"p{k}") for k in range(atoms - 1)), (Atom("q"),))
    assert _classically_valid(s) is (None if searched else False)
    none = SearchLimits(node_budget=0)
    for logic in "ci":
        engine = _ClassicalProver(s, none) if logic == "c" else _GroundProver(s, none, uniform=False)
        want = engine.run() if searched else Refuted()
        assert want == prove(s, logic, none) == (NotProvedWithinLimits() if searched else Refuted())
        assert isinstance(prove(s, logic), Refuted)


def test_a_deep_negation_chain_valuates_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < 2_000
    p, q = Atom("p"), Atom("q")
    f = p
    for _ in range(2_000):
        f = neg(f)
    assert _classically_valid(Sequent((f,), (p,))) is True
    assert _classically_valid(Sequent((neg(f),), (p,))) is False
    for logic in "cio":
        assert type(prove(Sequent((f,), (q,)), logic)) is (NotProvedWithinLimits if logic == "o" else Refuted)


@contextmanager
def _counted_valuations():
    """An empty verdict slot, and a mock that counts the valuations made."""
    with mock.patch("seqcalc.search._LAST_VERDICT", ((), None)):
        with mock.patch("seqcalc.search._valuate", wraps=_valuate) as valuate:
            yield valuate


@pytest.mark.parametrize("text", ["q |- s", "q & s |- s", "q, s => bot |- s"])
def test_c_i_o_and_restart_on_one_sequent_valuate_it_once(text):
    # the augmentation drops the goal's negations to key the verdict, as
    # does a root that holds one already, so it reads the root's verdict
    s = parse_sequent(text)
    with _counted_valuations() as valuate:
        outcomes = [type(prove(s, logic)) for logic in "cio"] + [type(prove_restart(r)) for r in (s, augment(s))]
    assert valuate.call_count == 1
    want = [Refuted, Refuted] + [NotProvedWithinLimits] * 3 if "&" not in text else [Proved] * 5
    assert outcomes == want


def test_an_equal_sequent_built_separately_reads_the_slot():
    with _counted_valuations() as valuate:
        assert _classically_valid(parse_sequent("q, s => q |- s")) is False
        again = Sequent((Imp(Atom("s"), Atom("q")), Atom("q")), (Atom("s"),))
        assert _classically_valid(again) is False
    assert valuate.call_count == 1


def test_a_different_sequent_is_valuated_anew():
    texts = ["p |- q", "q |- p", "p, p |- q", "p |- q", "p |- p"]
    with _counted_valuations() as valuate:
        verdicts = [_classically_valid(parse_sequent(t)) for t in texts]
        # a root whose Herbrandization keeps a function symbol is not
        # valuated; its verdict, None, takes the slot
        assert _classically_valid(parse_sequent(FUNCTION_ROOT)) is None
        assert valuate.call_count == len(texts)
        assert _classically_valid(parse_sequent("p |- p")) is True
    assert verdicts == [False, False, False, False, True]
    assert valuate.call_count == len(texts) + 1


def test_threads_deciding_interleaved_sequents_get_the_truth_table_verdicts():
    draws = [_valuation_draw(seed) for seed in range(48)]
    want = [truth_table_valid(s) for s in draws]

    def decide(shift):
        order = [(k + shift) % len(draws) for k in range(len(draws))] * 4
        return [(k, _classically_valid(draws[k])) for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [pair for run in pool.map(decide, range(0, 48, 6), timeout=120) for pair in run]
    finally:
        sys.setswitchinterval(interval)
    assert all(verdict is want[k] for k, verdict in got)


def test_concurrent_valuations_give_the_single_thread_outcomes():
    jobs = []
    for seed in range(96):
        s = _valuation_draw(seed)
        one = Sequent(s.ante, s.succ[:1])
        jobs.append((s, "c") if seed % 4 == 0 else (one, "restart" if seed % 4 == 3 else "io"[seed % 2]))

    def run(s, search):
        return prove_restart(s) if search == "restart" else prove(s, search)

    expected = [_signature(run(*job)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [_signature(f.result(timeout=120)) for f in [pool.submit(run, *job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


# ---------------------------------------------------------------------------
# classical valuation of function-free first-order roots

#: classically invalid first-order sequents (C=no): ROADMAP item 12's two
#: repros, then quantifier shifts and instances that do not follow
_FIRST_ORDER_INVALID = [
    "p(a) |- forall x. p(x)",
    "exists x. p(x) |- p(a)",
    "exists x. p(x) |- forall x. p(x)",
    "forall x. (p(x) | q(x)) |- (forall x. p(x)) | (forall x. q(x))",
    "(exists x. p(x)) & (exists x. q(x)) |- exists x. p(x) & q(x)",
    "forall x. (p(x) => q(x)), q(a) |- p(a)",
    "forall x. forall y. (r(x, y) => r(y, x)) |- r(a, b)",
    "exists y. forall x. r(x, y) |- forall x. r(x, x)",
    # two weak quantifiers in one nest: each instance binds its own variable
    "forall x. ((exists y. r(x, y)) => p(x)), r(a, b) |- p(b)",
]


@contextmanager
def _no_search():
    """Any engine built fails the test."""
    searched = AssertionError("an engine was built")
    with mock.patch.object(search, "_ClassicalProver", side_effect=searched):
        with mock.patch.object(search, "_GroundProver", side_effect=searched):
            yield


@pytest.mark.parametrize("text", _FIRST_ORDER_INVALID)
def test_first_order_countermodels_settle_every_relation_without_a_search(text):
    s = parse_sequent(text)
    assert expansion_countermodel(s, _herbrand_expansion(s)) is not None
    none = SearchLimits(node_budget=0)
    with _no_search():
        assert [type(prove(s, logic, none)) for logic in "cio"] == [Refuted, Refuted, NotProvedWithinLimits]
        assert isinstance(prove_restart(s, none), NotProvedWithinLimits)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("forall x. p(x) |- p(a)", True),
        ("exists y. forall x. r(x, y) |- forall x. exists y. r(x, y)", True),
        ("forall x. (p(x) => q(x)), exists x. p(x) |- exists x. q(x)", True),
        ("forall x. ((exists y. r(x, y)) => p(x)), r(a, b) |- p(a)", True),
        # the drinker: the witness of forall y under exists x is a function
        ("|- exists x. (p(x) => forall y. p(y))", None),
    ],
)
def test_valid_first_order_roots_are_searched_as_before(text, verdict):
    s = parse_sequent(text)
    assert _classically_valid(s) is verdict
    engine = _ClassicalProver(s, SearchLimits()).run()
    assert isinstance(engine, Proved)
    assert _signature(prove(s, "c")) == _signature(engine)


def test_c_i_o_and_restart_on_one_first_order_root_expand_it_once():
    # with its augmentation, as on quantifier-free roots
    for text in ("p(a) |- forall x. p(x)", "p(a), (forall x. p(x)) => bot |- forall x. p(x)"):
        s = parse_sequent(text)
        with mock.patch("seqcalc.search._LAST_VERDICT", ((), None)):
            with mock.patch("seqcalc.search._herbrand_expansion", wraps=_herbrand_expansion) as expand:
                outcomes = [type(prove(s, logic)) for logic in "cio"]
                outcomes += [type(prove_restart(r)) for r in (s, augment(s))]
        assert expand.call_count == 1, text
        assert outcomes == [Refuted, Refuted] + [NotProvedWithinLimits] * 3, text


def _function_free_draw(kind: str, seed: int) -> Sequent:
    """A fragment draw (the tests' mixed leaves, over p(x) and p(a)) or a
    Horn draw; neither has a function symbol."""
    return random_horn_sequent(random.Random(seed)) if kind == "horn" else _fragment_draw(kind, seed)


_DRAW_KINDS = _FRAGMENTS + ("horn",)


@settings(max_examples=500)
@given(st.sampled_from(_DRAW_KINDS), st.integers(0, 10**6))
def test_every_refutation_of_a_function_free_draw_has_a_finite_countermodel(kind, seed):
    # the countermodel is read off the expansion's first falsifying
    # valuation and checked on the draw itself by an evaluator that does
    # not Herbrandize
    s = _function_free_draw(kind, seed)
    refuted = [logic for logic in "ci" if isinstance(prove(s, logic, _SOUNDNESS_LIMITS), Refuted)]
    assert bool(refuted) == (_classically_valid(s) is False), format_sequent(s)
    if refuted:
        assert expansion_countermodel(s, _herbrand_expansion(s)) is not None, format_sequent(s)


@settings(max_examples=300)
@given(st.sampled_from(_DRAW_KINDS), st.integers(0, 10**6))
def test_no_function_free_root_the_classical_prover_proves_is_refuted(kind, seed):
    s = _function_free_draw(kind, seed)
    if isinstance(_ClassicalProver(s, _SOUNDNESS_LIMITS).run(), Proved):
        assert _classically_valid(s) is not False, format_sequent(s)


@settings(max_examples=300)
@given(st.sampled_from(_DRAW_KINDS), st.integers(0, 10**6))
def test_no_goal_directed_or_intuitionistic_proof_meets_a_classical_refutation(kind, seed):
    # the engines run directly, past the root valuation
    s = _function_free_draw(kind, seed)
    if not isinstance(prove(s, "c"), Refuted):
        return
    for uniform in (False, True):
        assert not isinstance(_GroundProver(s, _SOUNDNESS_LIMITS, uniform=uniform).run(), Proved), format_sequent(s)


def _first_order_draws(n: int) -> list[Sequent]:
    draws = (_function_free_draw(_DRAW_KINDS[seed % len(_DRAW_KINDS)], seed) for seed in range(10 * n))
    return [s for s in draws if not is_quantifier_free_sequent(s)][:n]


def test_function_free_draws_are_mostly_first_order_and_reach_both_verdicts():
    # the properties above hold vacuously on a quantifier-free draw
    draws = _first_order_draws(300)
    verdicts = [_classically_valid(s) for s in draws]
    assert len(draws) == 300
    assert 50 < verdicts.count(False) < 250 and 50 < verdicts.count(True)


def test_a_deep_first_order_root_gets_a_verdict_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < 2_000
    q = Atom("q")
    body = Atom("p", (Bound(0),))
    for _ in range(2_000):
        body = Imp(q, body)
    # forall x. q => ... => q => p(x), with 2,000 implications
    f = Forall(body, "x")
    goal = Atom("p", (Const("a"),))
    assert _classically_valid(Sequent((f, q), (goal,))) is True
    invalid = Sequent((f,), (goal,))
    assert _classically_valid(invalid) is False
    assert [type(prove(invalid, logic)) for logic in "cio"] == [Refuted, Refuted, NotProvedWithinLimits]
    assert isinstance(prove_restart(invalid), NotProvedWithinLimits)


#: over a and b: 2 instances of x, 4 of y and 8 of z
_NESTED = "p(a), p(b), forall x. forall y. forall z. r(x, y, z) |- q"


@pytest.mark.parametrize("cap, verdict", [(14, False), (13, None)])
def test_the_instance_cap_counts_every_instance_built(cap, verdict):
    with mock.patch.object(search, "_INSTANCE_CAP", cap), mock.patch("seqcalc.search._LAST_VERDICT", ((), None)):
        assert _classically_valid(parse_sequent(_NESTED)) is verdict


@pytest.mark.parametrize("facts, verdict", [(5, False), (6, None)])
def test_an_expansion_past_twelve_atoms_is_not_valuated(facts, verdict):
    # facts p-atoms, as many q-atoms over their constants, and r
    s = Sequent(tuple(Atom("p", (Const(f"a{k}"),)) for k in range(facts)) + (parse_formula("forall x. q(x)"),), (Atom("r"),))
    assert _classically_valid(s) is verdict


@pytest.mark.parametrize("goal, kind", [("r(a0, a1, a2)", Proved), ("q", NotProvedWithinLimits)])
def test_a_root_past_the_instance_cap_is_searched_as_before(goal, kind):
    # over 11 constants: 11 + 121 + 1,331 instances
    facts = tuple(Atom("p", (Const(f"a{k}"),)) for k in range(11))
    s = Sequent(facts + (parse_formula("forall x. forall y. forall z. r(x, y, z)"),), (parse_formula(goal),))
    assert _herbrand_expansion(s) is None and _classically_valid(s) is None
    limits = SearchLimits(node_budget=2_000)
    want = _ClassicalProver(s, limits).run()
    assert type(want) is kind
    assert _signature(prove(s, "c", limits)) == _signature(want)
    want = _GroundProver(s, limits, uniform=False).run()
    assert _signature(prove(s, "i", limits)) == _signature(want)


def test_threads_deciding_interleaved_first_order_roots_get_the_single_thread_verdicts():
    draws = _first_order_draws(48)
    want = [_classically_valid(s) for s in draws]
    assert True in want and False in want

    def decide(shift):
        order = [(k + shift) % len(draws) for k in range(len(draws))] * 4
        return [(k, _classically_valid(draws[k])) for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [pair for run in pool.map(decide, range(0, 48, 6), timeout=120) for pair in run]
    finally:
        sys.setswitchinterval(interval)
    assert all(verdict is want[k] for k, verdict in got)
