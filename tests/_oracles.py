"""Independent reference implementations and generators used by the tests.

Everything here is deliberately written against the public data types only,
by a different mechanism than the library code uses: validity is decided by
truth tables, grammar membership by bottom-up set construction from
production tables, and the generators build formulas directly from those
same tables.  The reference parser, term rewriters, loose-bound ranges,
Herbrandization, state keys, relevance check, un-memoized classical search,
ground visit without failure subsumption, quantifier-free walk, weakening,
freshening and rebinding, per-connective identity proofs, per-rule proof
transforms, and the proof checker with hand-written axiom, restart and
imp-l cases are earlier implementations of the library's own code, kept so
that their replacements can be compared with them; the transforms share
transform's node and inversion helpers, the classical search the rest of
the prover, and the checker the premise table of every other rule.  The
classical decision's step is chosen again by building every candidate's
premises and testing them, where the library ranks them unbuilt.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache

from seqcalc.calculus import (
    _CONNECTIVE_NAMES,
    _RULES,
    _RULESETS,
    _SINGLETON_KINDS,
    _UNIFORM_KINDS,
    INVERTIBLE,
    CheckReport,
    Proof,
    RuleId,
    _expect_premises,
    is_axiom,
    premises,
    rule_family,
    rule_usage,
)
from seqcalc.fragments import FORBIDDEN_FAMILIES
from seqcalc.parser import ParseError, SourceSpan
from seqcalc.syntax import (
    BOT,
    And,
    App,
    Atom,
    Bot,
    Bound,
    Const,
    Exists,
    Forall,
    Formula,
    Imp,
    Meta,
    Or,
    Sequent,
    Term,
    Top,
    Var,
    exists,
    forall,
    format_formula,
    formula_key,
    free_symbols,
    fresh_name,
    instantiate,
    map_terms,
    metas_in,
    multiset_minus,
    neg,
    predicate_names,
)
from seqcalc.transform import (
    TransformError,
    _invert_once,
    _node,
    _principal_formula,
    _reclose,
    _tree_symbols,
    weaken,
)

# ---------------------------------------------------------------------------
# structural order as nested tuples


def reference_term_key(t: Term) -> tuple:
    """The structural order on terms as nested tuples: the kind, then the
    fields left to right.  syntax.term_key must order and equate as this."""
    if isinstance(t, Bound):
        return (0, t.index)
    if isinstance(t, Var):
        return (1, t.name)
    if isinstance(t, Const):
        return (2, t.name)
    if isinstance(t, Meta):
        return (3, t.ident)
    if isinstance(t, App):
        return (4, t.name, tuple(reference_term_key(a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


_REFERENCE_TAGS = {Top: 0, Bot: 1, Atom: 2, And: 3, Or: 4, Imp: 5, Forall: 6, Exists: 7}


def reference_formula_key(f: Formula) -> tuple:
    """The structural order on formulas as nested tuples, binder hints left
    out.  syntax.formula_key must order and equate as this."""
    tag = _REFERENCE_TAGS[type(f)]
    if isinstance(f, Atom):
        return (tag, f.pred, tuple(reference_term_key(a) for a in f.args))
    if isinstance(f, (And, Or, Imp)):
        return (tag, reference_formula_key(f.left), reference_formula_key(f.right))
    if isinstance(f, (Forall, Exists)):
        return (tag, reference_formula_key(f.body))
    return (tag,)


# ---------------------------------------------------------------------------
# term rewriters, loose-bound ranges and term sizes by recursion


def reference_lbr(x) -> int:
    """One past the highest loose de Bruijn index in a term or formula, 0
    when it is closed.  syntax stores this as each node's _lbr."""
    if isinstance(x, Bound):
        return max(x.index + 1, 0)
    if isinstance(x, (App, Atom)):
        return max((reference_lbr(a) for a in x.args), default=0)
    if isinstance(x, (And, Or, Imp)):
        return max(reference_lbr(x.left), reference_lbr(x.right))
    if isinstance(x, (Forall, Exists)):
        return max(reference_lbr(x.body) - 1, 0)
    return 0


def reference_term_size(t: Term) -> int:
    """The number of term nodes in t.  syntax stores this as each
    application's _size."""
    if isinstance(t, App):
        return 1 + sum(map(reference_term_size, t.args))
    return 1


def _reference_map_terms(f: Formula, fn) -> Formula:
    """f rebuilt with fn(term, depth) in place of each atom argument."""

    def go(g: Formula, depth: int) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(fn(a, depth) for a in g.args)) if g.args else g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(go(g.left, depth), go(g.right, depth))
        if isinstance(g, (Forall, Exists)):
            return type(g)(go(g.body, depth + 1), g.hint)
        return g

    return go(f, 0)


def _replace_bound_term(t: Term, depth: int, repl: Term) -> Term:
    match t:
        case Bound(i) if i == depth:
            return repl
        case Bound(i) if i > depth:
            return Bound(i - 1)
        case App(name, args):
            return App(name, tuple(_replace_bound_term(a, depth, repl) for a in args))
        case _:
            return t


def reference_instantiate(q: Formula, t: Term) -> Formula:
    return _reference_map_terms(q.body, lambda a, depth: _replace_bound_term(a, depth, t))


def _abstract_term(t: Term, name: str, depth: int) -> Term:
    match t:
        case Var(n) if n == name:
            return Bound(depth)
        case App(fn, args):
            return App(fn, tuple(_abstract_term(a, name, depth) for a in args))
        case _:
            return t


def reference_forall(name: str, f: Formula) -> Formula:
    return Forall(_reference_map_terms(f, lambda a, depth: _abstract_term(a, name, depth)), name)


def reference_exists(name: str, f: Formula) -> Formula:
    return Exists(_reference_map_terms(f, lambda a, depth: _abstract_term(a, name, depth)), name)


def _substitute_term(t: Term, name: str, repl: Term) -> Term:
    match t:
        case Var(n) if n == name:
            return repl
        case App(fn, args):
            return App(fn, tuple(_substitute_term(a, name, repl) for a in args))
        case _:
            return t


def reference_substitute(t: Term, name: str, f: Formula) -> Formula:
    return _reference_map_terms(f, lambda a, _: _substitute_term(a, name, t))


def _rename_constant_term(t: Term, old: str, new: str) -> Term:
    match t:
        case Const(n) if n == old:
            return Const(new)
        case App(fn, args):
            args2 = tuple(_rename_constant_term(a, old, new) for a in args)
            return App(new if fn == old else fn, args2)
        case _:
            return t


def reference_rename_constant(x, old: str, new: str):
    """x, a term or a formula, with a constant or function symbol renamed."""
    if isinstance(x, (Bound, Var, Const, App, Meta)):
        return _rename_constant_term(x, old, new)
    return _reference_map_terms(x, lambda a, _: _rename_constant_term(a, old, new))


def reference_herbrandize(s: Sequent) -> Sequent:
    """search.herbrandize by recursion on the formula."""
    taken = set(free_symbols(s)).union(*(predicate_names(f) for f in s.ante + s.succ))
    fn_counter = 0
    var_counter = 0

    def fresh_fn() -> str:
        nonlocal fn_counter
        while f"h{fn_counter}" in taken:
            fn_counter += 1
        name = f"h{fn_counter}"
        fn_counter += 1
        return name

    def herb(f: Formula, positive: bool, weak: tuple[str, ...]) -> Formula:
        nonlocal var_counter
        match f:
            case And(l, r):
                return And(herb(l, positive, weak), herb(r, positive, weak))
            case Or(l, r):
                return Or(herb(l, positive, weak), herb(r, positive, weak))
            case Imp(l, r):
                return Imp(herb(l, not positive, weak), herb(r, positive, weak))
            case Forall() | Exists():
                strong = positive if isinstance(f, Forall) else not positive
                if strong:
                    name = fresh_fn()
                    t: Term = App(name, tuple(Var(v) for v in weak)) if weak else Const(name)
                    return herb(reference_instantiate(f, t), positive, weak)
                v = f"_w{var_counter}"
                var_counter += 1
                body = herb(reference_instantiate(f, Var(v)), positive, weak + (v,))
                binder = reference_forall if isinstance(f, Forall) else reference_exists
                rebound = binder(v, body)
                return type(f)(rebound.body, f.hint)
            case _:
                return f

    return Sequent(
        tuple(herb(f, False, ()) for f in s.ante),
        tuple(herb(f, True, ()) for f in s.succ),
    )


# ---------------------------------------------------------------------------
# rule premises by sorting construction

#: rules whose premises keep the principal formula
_KEEPS_PRINCIPAL = {RuleId.CONTR_L, RuleId.CONTR_R, RuleId.FORALL_L_STAR, RuleId.EXISTS_R_STAR}
#: rules whose principal is in the succedent
_SUCC_RULES = {
    RuleId.CONTR_R,
    RuleId.BOT_R,
    RuleId.AND_R,
    RuleId.OR_R_LEFT,
    RuleId.OR_R_RIGHT,
    RuleId.OR_R_STAR,
    RuleId.IMP_R,
    RuleId.EXISTS_R,
    RuleId.EXISTS_R_STAR,
    RuleId.FORALL_R,
}


def reference_premises(
    rule: RuleId,
    s: Sequent,
    index: int,
    f: Formula,
    witness: Term | None = None,
    eigen: str | None = None,
    goal: Formula | None = None,
) -> tuple[Sequent, ...]:
    """The premises of a rule application, one case per rule, each built
    by the sorting Sequent constructor.  calculus.premises must return
    these, member object for member object."""
    if rule in (RuleId.AXIOM, RuleId.RESTART):
        raise ValueError(f"rule {rule.value} has no principal formula")
    side = "succ" if rule in _SUCC_RULES else "ante"
    ante, succ = s.ante, s.succ
    if rule not in _KEEPS_PRINCIPAL:
        if side == "ante":
            ante = ante[:index] + ante[index + 1 :]
        else:
            succ = succ[:index] + succ[index + 1 :]

    def add(*parts: Formula) -> Sequent:
        return Sequent(ante + parts, succ) if side == "ante" else Sequent(ante, succ + parts)

    match rule:
        case RuleId.CONTR_L | RuleId.CONTR_R:
            return (add(f),)
        case RuleId.BOT_R:
            return (add(Bot()),)
        case RuleId.AND_L_LEFT | RuleId.OR_R_LEFT:
            return (add(f.left),)
        case RuleId.AND_L_RIGHT | RuleId.OR_R_RIGHT:
            return (add(f.right),)
        case RuleId.AND_L_STAR | RuleId.OR_R_STAR:
            return (add(f.left, f.right),)
        case RuleId.OR_L | RuleId.AND_R:
            return (add(f.left), add(f.right))
        case RuleId.OR_L_RESTART:
            return (add(f.left), Sequent(ante + (f.right,), (goal,)))
        case RuleId.IMP_L_STAR:
            return (Sequent(ante, succ + (f.left,)), add(f.right))
        case RuleId.IMP_L_STAR_INT:
            return (Sequent(s.ante, (f.left,)), add(f.right))
        case RuleId.IMP_R:
            return (Sequent(ante + (f.left,), succ + (f.right,)),)
        case RuleId.FORALL_L | RuleId.EXISTS_R | RuleId.FORALL_L_STAR | RuleId.EXISTS_R_STAR:
            return (add(instantiate(f, witness)),)
        case RuleId.EXISTS_L | RuleId.FORALL_R:
            return (add(instantiate(f, Const(eigen))),)
    raise ValueError(f"rule {rule.value} leaves its succedent split free")


# ---------------------------------------------------------------------------
# proof checking with the axiom, restart and imp-l cases written out


def _reference_union(*parts) -> tuple[Formula, ...]:
    return tuple(sorted((f for part in parts for f in part), key=formula_key))


def _reference_uniform_violation(node: Proof) -> str | None:
    succ = node.conclusion.succ
    if len(succ) != 1:
        return "goal-directed proofs need singleton succedents"
    goal = succ[0]
    if isinstance(goal, (Atom, Top, Bot)):
        return None
    if _RULES.get(node.rule, ())[:2] != ("succ", type(goal)):
        return (
            f"compound goal {format_formula(goal)} must be introduced by its "
            f"right rule, not {node.rule.value}"
        )
    return None


def _reference_check_node(node: Proof, cls, strengthened: bool) -> str | None:
    """One rule application, with its own arity check for the axiom,
    restart and imp-l rules and five conditions on imp-l's split."""
    rule = node.rule
    s = node.conclusion
    for f in s.ante + s.succ:
        if metas_in(f):
            return "sequent contains unresolved metavariables"
    if node.witness is not None and metas_in(node.witness):
        return "witness term contains unresolved metavariables"

    if rule is RuleId.AXIOM:
        if node.premises:
            return "axiom must not have premises"
        if not is_axiom(s, strengthened):
            return f"not an axiom: {s}"
        return None

    if rule is RuleId.RESTART:
        if len(node.premises) != 1:
            return "restart takes one premise"
        if len(s.succ) != 1:
            return "restart needs a singleton succedent"
        return _expect_premises(node, Sequent(s.ante, (cls.goal,)))

    side, connective, _ = _RULES[rule]
    if node.principal is None:
        return f"rule {rule.value} needs a principal formula"
    got_side, index = node.principal
    if got_side != side:
        return f"rule {rule.value} expects its principal on the {side} side"
    formulas = s.ante if side == "ante" else s.succ
    if not 0 <= index < len(formulas):
        return f"principal index {index} out of range"
    f = formulas[index]
    if connective is not None and not isinstance(f, connective):
        return f"principal of {rule.value} must be {_CONNECTIVE_NAMES[connective]}"
    if rule is RuleId.IMP_L:
        if len(node.premises) != 2:
            return "imp-l takes two premises"
        rest = s.ante[:index] + s.ante[index + 1 :]
        p1, p2 = (q.conclusion for q in node.premises)
        if p1.ante != rest:
            return "imp-l: first premise must keep the remaining antecedent"
        delta1 = multiset_minus(p1.succ, (f.left,))
        if delta1 is None:
            return "imp-l: first premise must add the implication antecedent to the succedent"
        if p2.ante != _reference_union(rest, (f.right,)):
            return "imp-l: second premise must add the implication consequent to the antecedent"
        if _reference_union(delta1, p2.succ) != s.succ:
            return "imp-l: premise succedents must split the conclusion succedent"
        return None
    term = node.witness
    if (side, connective) in (("ante", Forall), ("succ", Exists)):
        if term is None:
            return f"rule {rule.value} needs a witness term"
    elif (side, connective) in (("ante", Exists), ("succ", Forall)):
        if not node.eigen:
            return f"rule {rule.value} needs an eigenvariable"
        if node.eigen in free_symbols(s):
            return f"eigenvariable {node.eigen!r} already occurs in the conclusion"
        if cls.goal is not None and node.eigen in free_symbols(cls.goal):
            return f"eigenvariable {node.eigen!r} occurs in the restart goal"
        term = Const(node.eigen)
    return _expect_premises(node, *premises(rule, s, index, f, term, cls.goal))


def reference_check_proof(proof: Proof, cls, strengthened_axioms: bool = False) -> CheckReport:
    """check_proof as it was when the axiom, restart and imp-l rules were
    checked by hand, each with its own arity check; the other rules share
    the library's premise table."""
    allowed = _RULESETS[cls.kind]
    stack = [(proof, ())]
    while stack:
        node, path = stack.pop()
        if node.rule not in allowed:
            return CheckReport(False, f"rule {node.rule.value} is not part of class {cls}", path)
        if cls.kind in _SINGLETON_KINDS and len(node.conclusion.succ) != 1:
            return CheckReport(False, f"class {cls} needs singleton succedents, found {node.conclusion}", path)
        msg = (_reference_uniform_violation(node) if cls.kind in _UNIFORM_KINDS else None) or _reference_check_node(
            node, cls, strengthened_axioms
        )
        if msg:
            return CheckReport(False, msg, path)
        for i, q in enumerate(node.premises):
            stack.append((q, path + (i,)))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# truth tables


def _subformulas(f: Formula):
    yield f
    if isinstance(f, (And, Or, Imp)):
        yield from _subformulas(f.left)
        yield from _subformulas(f.right)
    elif isinstance(f, (Forall, Exists)):
        raise ValueError("truth tables cover quantifier-free formulas only")


def _eval(f: Formula, env: dict) -> bool:
    if isinstance(f, Atom):
        return env[(f.pred, f.args)]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return _eval(f.left, env) and _eval(f.right, env)
    if isinstance(f, Or):
        return _eval(f.left, env) or _eval(f.right, env)
    if isinstance(f, Imp):
        return (not _eval(f.left, env)) or _eval(f.right, env)
    raise ValueError(f"cannot evaluate {f!r}")


def falsifying_valuation(s: Sequent) -> dict | None:
    """The first valuation, in enumeration order, that makes every
    antecedent member of the quantifier-free sequent s true and every
    succedent member false; None when s is classically valid.

    Ground atoms are propositional variables keyed by predicate and
    argument tuple.
    """
    atoms = sorted(
        {g for member in s.ante + s.succ for g in _subformulas(member) if isinstance(g, Atom)},
        key=formula_key,
    )
    for bits in itertools.product((False, True), repeat=len(atoms)):
        env = {(g.pred, g.args): bit for g, bit in zip(atoms, bits)}
        if all(_eval(f, env) for f in s.ante) and not any(_eval(f, env) for f in s.succ):
            return env
    return None


def truth_table_valid(s: Sequent) -> bool:
    """Classical validity of a quantifier-free sequent, by enumeration."""
    return falsifying_valuation(s) is None


# ---------------------------------------------------------------------------
# finite structures


def _holds(f: Formula, domain: list[Const], true_atoms: set, env: tuple) -> bool:
    """f's truth in the structure whose elements are the constants in
    domain, each naming itself, and in which an atom holds exactly when
    (predicate, argument tuple) is in true_atoms; env[i] is the element
    that the bound variable of index i stands for."""
    if isinstance(f, Atom):
        args = []
        for t in f.args:
            if isinstance(t, Bound):
                args.append(env[t.index])
            elif isinstance(t, Const):
                args.append(t)
            else:
                raise ValueError(f"a finite structure names no term {t!r}")
        return (f.pred, tuple(args)) in true_atoms
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return _holds(f.left, domain, true_atoms, env) and _holds(f.right, domain, true_atoms, env)
    if isinstance(f, Or):
        return _holds(f.left, domain, true_atoms, env) or _holds(f.right, domain, true_atoms, env)
    if isinstance(f, Imp):
        return not _holds(f.left, domain, true_atoms, env) or _holds(f.right, domain, true_atoms, env)
    instances = (_holds(f.body, domain, true_atoms, (d,) + env) for d in domain)
    return all(instances) if isinstance(f, Forall) else any(instances)


def _constants(s: Sequent) -> set[Const]:
    """The constants that are arguments of s's atoms."""
    members = s.ante + s.succ
    return {t for f in members for g in _walk_all(f) if isinstance(g, Atom) for t in g.args if isinstance(t, Const)}


def expansion_countermodel(s: Sequent, ground: Sequent) -> tuple[list[Const], set] | None:
    """A finite countermodel of the first-order sequent s, read off ground,
    a quantifier-free sequent over the same predicates (the library's
    Herbrand expansion of s): the structure whose elements are the
    constants of s and of ground (one element when there are none), in
    which the atoms that ground's first falsifying valuation makes true
    hold.  It is returned as (elements, true atoms) when s is false in it,
    every antecedent member true and every succedent member false, as the
    evaluator above reads s itself, quantifiers included; None when ground
    is valid or the structure does not falsify s."""
    valuation = falsifying_valuation(ground)
    if valuation is None:
        return None
    domain = sorted(_constants(s) | _constants(ground), key=lambda c: c.name) or [Const("e")]
    true_atoms = {atom for atom, bit in valuation.items() if bit}
    if all(_holds(f, domain, true_atoms, ()) for f in s.ante) and not any(
        _holds(f, domain, true_atoms, ()) for f in s.succ
    ):
        return domain, true_atoms
    return None


# ---------------------------------------------------------------------------
# exhaustive propositional enumeration

PROP_LEAVES: tuple[Formula, ...] = (Atom("q"), Atom("s"), Atom("t"), Top(), Bot())


@lru_cache(maxsize=None)
def formulas_with_connectives(n: int, leaves: tuple[Formula, ...] = PROP_LEAVES) -> tuple[Formula, ...]:
    """Every formula with exactly n binary connectives over the leaf pool."""
    if n == 0:
        return tuple(leaves)
    out = []
    for i in range(n):
        for l in formulas_with_connectives(i, leaves):
            for r in formulas_with_connectives(n - 1 - i, leaves):
                out.append(And(l, r))
                out.append(Or(l, r))
                out.append(Imp(l, r))
    return tuple(out)


def connective_count(f: Formula) -> int:
    if isinstance(f, (And, Or, Imp)):
        return 1 + connective_count(f.left) + connective_count(f.right)
    if isinstance(f, (Forall, Exists)):
        return 1 + connective_count(f.body)
    return 0


def random_propositional(rng: random.Random, n: int, leaves: tuple[Formula, ...] = PROP_LEAVES) -> Formula:
    """A uniformly shaped random formula with exactly n binary connectives."""
    if n == 0:
        return rng.choice(leaves)
    i = rng.randrange(n)
    l = random_propositional(rng, i, leaves)
    r = random_propositional(rng, n - 1 - i, leaves)
    return rng.choice((And, Or, Imp))(l, r)


def random_propositional_sequent(
    rng: random.Random, max_connectives: int = 6, leaves: tuple[Formula, ...] = PROP_LEAVES
) -> Sequent:
    """A random quantifier-free sequent with a bounded connective total."""
    n_ante = rng.randrange(3)
    n_succ = rng.randrange(1, 3)
    budget = rng.randrange(max_connectives + 1)
    sizes = [0] * (n_ante + n_succ)
    for _ in range(budget):
        sizes[rng.randrange(len(sizes))] += 1
    members = [random_propositional(rng, k, leaves) for k in sizes]
    return Sequent(tuple(members[:n_ante]), tuple(members[n_ante:]))


# ---------------------------------------------------------------------------
# fragment grammars as production tables
#
# Roles are grammar nonterminals.  A production is either "leaf" or a
# constructor name plus the roles of its operands; quantifier productions
# take one operand role.  These tables are the membership definition the
# library predicates are compared against.

GRAMMAR_PRODUCTIONS: dict[tuple[str, str], tuple] = {
    ("f1", "goal"): (
        ("leaf",),
        ("and", "goal", "goal"),
        ("or", "goal", "goal"),
        ("forall", "goal"),
        ("exists", "goal"),
    ),
    ("f1", "clause"): (
        ("leaf",),
        ("imp", "goal", "clause"),
        ("and", "clause", "clause"),
        ("forall", "clause"),
        ("exists", "clause"),
    ),
    ("f2", "goal"): (
        ("leaf",),
        ("and", "goal", "goal"),
        ("or", "goal", "goal"),
        ("exists", "goal"),
    ),
    ("f2", "clause"): (
        ("leaf",),
        ("imp", "goal", "clause"),
        ("and", "clause", "clause"),
        ("or", "clause", "clause"),
        ("forall", "clause"),
        ("exists", "clause"),
    ),
    ("f3", "goal"): (
        ("leaf",),
        ("and", "goal", "goal"),
        ("or", "goal", "goal"),
        ("forall", "goal"),
        ("exists", "goal"),
    ),
    ("f3", "clause"): (
        ("leaf",),
        ("imp", "goal", "clause"),
        ("and", "clause", "clause"),
        ("or", "clause", "clause"),
        ("exists", "clause"),
    ),
    ("f4", "goal"): (
        ("leaf",),
        ("and", "goal", "goal"),
        ("imp", "clause", "goal"),
        ("forall", "goal"),
    ),
    ("f4", "clause"): (
        ("leaf",),
        ("and", "clause", "clause"),
        ("or", "clause", "clause"),
        ("forall", "clause"),
        ("exists", "clause"),
    ),
    ("lp-int", "goal"): (
        ("leaf",),
        ("and", "goal", "goal"),
        ("or", "goal", "goal"),
        ("imp", "clause", "goal"),
        ("forall", "goal"),
        ("exists", "goal"),
    ),
    ("lp-int", "clause"): (
        ("leaf",),
        ("imp", "goal", "clause"),
        ("and", "clause", "clause"),
        ("forall", "clause"),
    ),
    ("lp-cls", "base-goal"): (
        ("leaf",),
        ("and", "base-goal", "base-goal"),
        ("or", "base-goal", "base-goal"),
        ("forall", "base-goal"),
        ("exists", "base-goal"),
    ),
    ("lp-cls", "goal"): (
        ("base-goal",),
        ("imp", "clause", "goal"),
        ("and", "goal", "goal"),
        ("forall", "goal"),
    ),
    ("lp-cls", "clause"): (
        ("leaf",),
        ("imp", "base-goal", "clause"),
        ("and", "clause", "clause"),
        ("forall", "clause"),
    ),
}

FRAGMENT_ROLES = {
    "f1": ("goal", "clause"),
    "f2": ("goal", "clause"),
    "f3": ("goal", "clause"),
    "f4": ("goal", "clause"),
    "lp-int": ("goal", "clause"),
    "lp-cls": ("base-goal", "clause", "goal"),
}

_BINARY = {"and": And, "or": Or, "imp": Imp}


def grammar_members(fragment: str, max_connectives: int, leaves: tuple[Formula, ...]) -> dict[str, set]:
    """Bottom-up member sets per role, up to a connective budget.

    Roles are filled size by size; within a size, roles are processed in
    table order so same-size unit productions (goal := base-goal) see the
    source role already populated.
    """
    roles = FRAGMENT_ROLES[fragment]
    by_size: dict[str, list[set]] = {role: [set() for _ in range(max_connectives + 1)] for role in roles}
    for n in range(max_connectives + 1):
        for role in roles:
            bucket = by_size[role][n]
            for prod in GRAMMAR_PRODUCTIONS[(fragment, role)]:
                head = prod[0]
                if head == "leaf":
                    if n == 0:
                        bucket.update(leaves)
                elif head in _BINARY:
                    _, lrole, rrole = prod
                    for i in range(n):
                        for l in by_size[lrole][i]:
                            for r in by_size[rrole][n - 1 - i]:
                                bucket.add(_BINARY[head](l, r))
                elif head in ("forall", "exists"):
                    if n > 0:
                        quant = forall if head == "forall" else exists
                        bucket.update(quant("x", b) for b in by_size[prod[1]][n - 1])
                else:  # unit production from another role
                    bucket.update(by_size[head][n])
    return {role: set().union(*by_size[role]) for role in roles}


def formula_universe(max_connectives: int, leaves: tuple[Formula, ...]) -> list[Formula]:
    """All formulas over the leaves with and/or/imp/forall/exists, by size."""
    tiers: list[list[Formula]] = [list(leaves)]
    for n in range(1, max_connectives + 1):
        tier: list[Formula] = []
        for i in range(n):
            for l in tiers[i]:
                for r in tiers[n - 1 - i]:
                    tier.extend((And(l, r), Or(l, r), Imp(l, r)))
        tier.extend(forall("x", b) for b in tiers[n - 1])
        tier.extend(exists("x", b) for b in tiers[n - 1])
        tiers.append(tier)
    return [f for tier in tiers for f in tier]


# ---------------------------------------------------------------------------
# random in-grammar generation


def random_in_grammar(
    rng: random.Random,
    fragment: str,
    role: str,
    budget: int,
    leaves: tuple[Formula, ...],
) -> Formula:
    """A random member of the given grammar role with at most `budget` connectives."""
    options = [p for p in GRAMMAR_PRODUCTIONS[(fragment, role)]]
    if budget == 0:
        options = [p for p in options if p[0] == "leaf" or (p[0] not in _BINARY and p[0] not in ("forall", "exists"))]
    prod = rng.choice(options)
    head = prod[0]
    if head == "leaf":
        return rng.choice(leaves)
    if head in _BINARY:
        split = rng.randrange(budget)
        l = random_in_grammar(rng, fragment, prod[1], split, leaves)
        r = random_in_grammar(rng, fragment, prod[2], budget - 1 - split, leaves)
        return _BINARY[head](l, r)
    if head in ("forall", "exists"):
        body = random_in_grammar(rng, fragment, prod[1], budget - 1, leaves)
        return (forall if head == "forall" else exists)("x", body)
    return random_in_grammar(rng, fragment, head, budget, leaves)


#: small mixed leaf pool: three propositional letters, a unary predicate
#: over a bindable variable and over a constant, and the units
def mixed_leaves() -> tuple[Formula, ...]:
    return (
        Atom("q"),
        Atom("s"),
        Atom("t"),
        Atom("p", (Var("x"),)),
        Atom("p", (Const("a"),)),
        Top(),
        Bot(),
    )


def _grounded(f: Formula) -> Formula:
    """Replace any x the quantifier productions left unbound by a constant."""
    return instantiate(forall("x", f), Const("a"))


def random_fragment_sequent(
    rng: random.Random, fragment: str, n_clauses: int, goal_budget: int, clause_budget: int
) -> Sequent:
    """An in-fragment sequent; the goal's atoms are seeded into the clauses
    often enough that a useful share is classically provable."""
    leaves = mixed_leaves()
    goal = _grounded(random_in_grammar(rng, fragment, "goal", goal_budget, leaves))
    clauses = [
        _grounded(random_in_grammar(rng, fragment, "clause", clause_budget, leaves))
        for _ in range(n_clauses)
    ]
    # bias toward provability: sometimes assert one of the goal's atoms
    goal_atoms = [g for g in _walk_all(goal) if isinstance(g, Atom) and not _has_bound(g)]
    if goal_atoms and rng.random() < 0.7:
        clauses.append(rng.choice(goal_atoms))
    return Sequent(tuple(clauses), (goal,))


def _walk_all(f: Formula):
    yield f
    if isinstance(f, (And, Or, Imp)):
        yield from _walk_all(f.left)
        yield from _walk_all(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from _walk_all(f.body)


def _has_bound(g: Atom) -> bool:
    def scan(t):
        if isinstance(t, Bound):
            return True
        return any(scan(a) for a in getattr(t, "args", ()))

    return any(scan(a) for a in g.args)


# ---------------------------------------------------------------------------
# Horn-like sequents


def random_horn_sequent(rng: random.Random) -> Sequent:
    """Facts plus definite clauses over a tiny signature, with an atomic or
    existential goal; a large share is classically provable."""
    preds = ("p", "q", "r")
    consts = (Const("a"), Const("b"), Const("c"))

    def atom(term=None):
        pred = rng.choice(preds)
        t = term if term is not None else rng.choice(consts)
        return Atom(pred, (t,))

    clauses: list[Formula] = []
    for _ in range(rng.randrange(1, 4)):
        clauses.append(atom())
    for _ in range(rng.randrange(0, 3)):
        body = atom(Var("x"))
        head = atom(Var("x"))
        if rng.random() < 0.4:
            body = And(body, atom(Var("x")))
        clauses.append(forall("x", Imp(body, head)))
    goal: Formula = atom()
    if rng.random() < 0.4:
        goal = exists("x", atom(Var("x")))
    elif rng.random() < 0.3:
        goal = And(goal, atom())
    return Sequent(tuple(clauses), (goal,))


# ---------------------------------------------------------------------------
# parametric families (Dyckhoff, "Some benchmark formulae for intuitionistic
# propositional logic", 1997)


def _chain(connective, members: list[Formula]) -> Formula:
    f = members[0]
    for g in members[1:]:
        f = connective(f, g)
    return f


def pigeonhole_sequent(n: int) -> Sequent:
    """PH_n: n+1 pigeons i, each in one of n holes j (atom oixj), so two
    pigeons share a hole: the antecedent is the conjunction over i of
    oix0 | ... | oix(n-1), the succedent the disjunction over j and i < k of
    oixj & okxj."""

    def at(i: int, j: int) -> Atom:
        return Atom(f"o{i}x{j}")

    pigeons = [_chain(Or, [at(i, j) for j in range(n)]) for i in range(n + 1)]
    shared = [And(at(i, j), at(k, j)) for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1)]
    return Sequent((_chain(And, pigeons),), (_chain(Or, shared),))


def de_bruijn_sequent(n: int) -> Sequent:
    """DB_n: atoms p0 ... p(2n), read cyclically, and C their conjunction;
    the antecedent is the conjunction over i of ((p_i <=> p_i+1) => C), with
    <=> spelled as two implications, and the succedent is C."""
    m = 2 * n + 1
    p = [Atom(f"p{i}") for i in range(m)]
    c = _chain(And, p)
    links = [Imp(And(Imp(p[i], p[(i + 1) % m]), Imp(p[(i + 1) % m], p[i])), c) for i in range(m)]
    return Sequent((_chain(And, links),), (c,))


# ---------------------------------------------------------------------------
# contraction decoration


def decorate_with_contractions(rng: random.Random, proof, n: int):
    """Insert n antecedent/succedent contraction nodes at random positions.

    Each insertion picks a node, duplicates one formula of its conclusion
    into the subproof by weakening, and closes with the matching contraction,
    so the decorated tree still proves the same end sequent.
    """
    def nodes(p, path=()):
        yield path
        for i, q in enumerate(p.premises):
            yield from nodes(q, path + (i,))

    def get(p, path):
        for i in path:
            p = p.premises[i]
        return p

    def set_node(p, path, new):
        if not path:
            return new
        i = path[0]
        prems = list(p.premises)
        prems[i] = set_node(prems[i], path[1:], new)
        return Proof(p.rule, p.conclusion, tuple(prems), p.principal, p.witness, p.eigen)

    for _ in range(n):
        path = rng.choice(list(nodes(proof)))
        target = get(proof, path)
        s = target.conclusion
        sides = [("ante", i) for i in range(len(s.ante))] + [("succ", i) for i in range(len(s.succ))]
        if not sides:
            continue
        side, idx = rng.choice(sides)
        if side == "ante":
            f = s.ante[idx]
            widened = weaken(target, extra_ante=(f,))
            node = Proof(RuleId.CONTR_L, s, (widened,), ("ante", s.ante.index(f)))
        else:
            f = s.succ[idx]
            widened = weaken(target, extra_succ=(f,))
            node = Proof(RuleId.CONTR_R, s, (widened,), ("succ", s.succ.index(f)))
        proof = set_node(proof, path, node)
    return proof


# ---------------------------------------------------------------------------
# recursive-descent parser: the reference for seqcalc.parser's stack parser,
# which must return the same objects and raise the same errors


_REF_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<capident>[A-Z][A-Za-z0-9_]*)
      | (?P<turnstile>\|-)
      | (?P<imp>=>)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<amp>&)
      | (?P<pipe>\|)
      | (?P<tilde>~)
    """,
    re.VERBOSE,
)

_REF_KEYWORDS = {"forall", "exists", "top", "bot"}


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    span: SourceSpan


def _reference_tokenize(source: str) -> list[_RefToken]:
    out: list[_RefToken] = []
    pos = 0
    while pos < len(source):
        m = _REF_TOKEN.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", SourceSpan(pos, pos + 1), source)
        kind = m.lastgroup or ""
        if kind == "capident":
            raise ParseError(
                f"capitalized identifier {m.group()!r} (that spelling is reserved for metavariables)",
                SourceSpan(m.start(), m.end()),
                source,
            )
        if kind != "ws":
            text = m.group()
            if kind == "ident" and text in _REF_KEYWORDS:
                kind = text
            out.append(_RefToken(kind, text, SourceSpan(m.start(), m.end())))
        pos = m.end()
    out.append(_RefToken("eof", "", SourceSpan(len(source), len(source))))
    return out


class _ReferenceParser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _reference_tokenize(source)
        self.pos = 0
        self.binders: list[str] = []  # innermost last

    # -- token helpers ----------------------------------------------------

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}, found {tok.text!r}" if tok.kind != "eof" else f"expected {what}, found end of input", tok)
        return self.next()

    def error(self, message: str, tok: _RefToken) -> ParseError:
        return ParseError(message, tok.span, self.source)

    # -- grammar ----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "imp":
            self.next()
            return Imp(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "pipe":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "amp":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "tilde":
            self.next()
            return neg(self.unary())
        if tok.kind in ("forall", "exists"):
            self.next()
            name = self.expect("ident", "a bound variable name").text
            self.expect("dot", "'.' after the bound variable")
            self.binders.append(name)
            try:
                body = self.formula()
            finally:
                self.binders.pop()
            return Forall(body, name) if tok.kind == "forall" else Exists(body, name)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "top":
            return Top()
        if tok.kind == "bot":
            return Bot()
        if tok.kind == "lparen":
            f = self.formula()
            self.expect("rparen", "')'")
            return f
        if tok.kind == "ident":
            if self._bound_index(tok.text) is not None:
                raise self.error(f"bound variable {tok.text!r} used as a formula", tok)
            args: tuple[Term, ...] = ()
            if self.peek().kind == "lparen":
                args = self.arglist()
            return Atom(tok.text, args)
        raise self.error(f"expected a formula, found {tok.text!r}" if tok.kind != "eof" else "expected a formula, found end of input", tok)

    def arglist(self) -> tuple[Term, ...]:
        self.expect("lparen", "'('")
        args = [self.term()]
        while self.peek().kind == "comma":
            self.next()
            args.append(self.term())
        self.expect("rparen", "')'")
        return tuple(args)

    def term(self) -> Term:
        tok = self.expect("ident", "a term")
        idx = self._bound_index(tok.text)
        if idx is not None:
            if self.peek().kind == "lparen":
                raise self.error(f"bound variable {tok.text!r} cannot take arguments", tok)
            return Bound(idx)
        if self.peek().kind == "lparen":
            return App(tok.text, self.arglist())
        return Const(tok.text)

    def _bound_index(self, name: str) -> int | None:
        for depth, binder in enumerate(reversed(self.binders)):
            if binder == name:
                return depth
        return None

    # -- entry points -----------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self.formula()
        self.expect("eof", "end of input")
        return f

    def parse_sequent(self) -> Sequent:
        ante = self.formula_list(stop={"turnstile"})
        self.expect("turnstile", "'|-'")
        succ = self.formula_list(stop={"eof"})
        self.expect("eof", "end of input")
        return Sequent(tuple(ante), tuple(succ))

    def formula_list(self, stop: set[str]) -> list[Formula]:
        if self.peek().kind in stop:
            return []
        out = [self.formula()]
        while self.peek().kind == "comma":
            self.next()
            out.append(self.formula())
        return out


def reference_parse_formula(source: str) -> Formula:
    return _ReferenceParser(source).parse_formula()


def reference_parse_term(source: str) -> Term:
    p = _ReferenceParser(source)
    t = p.term()
    p.expect("eof", "end of input")
    return t


def reference_parse_sequent(source: str) -> Sequent:
    return _ReferenceParser(source).parse_sequent()


# ---------------------------------------------------------------------------
# ground-search state keys as joined strings

_REF_TAGS = {And: "&(", Or: "|(", Imp: ">(", Forall: "A.", Exists: "E."}


def _reference_template(f: Formula, root: set[str]) -> tuple[str, tuple[str, ...]]:
    """f as a token string with each constant outside root replaced by a
    per-formula hole number, plus the hole fillers in first-occurrence order."""
    holes: dict[str, int] = {}

    def cterm(t: Term) -> str:
        if isinstance(t, Const):
            if t.name in root:
                return t.name
            return f"!{holes.setdefault(t.name, len(holes))}"
        if isinstance(t, App):
            return t.name + "(" + ",".join(cterm(a) for a in t.args) + ")"
        if isinstance(t, Bound):
            return f"#{t.index}"
        return t.name

    def cform(g: Formula) -> str:
        if isinstance(g, Atom):
            return g.pred + "(" + ",".join(cterm(a) for a in g.args) + ")" if g.args else g.pred
        if isinstance(g, (Top, Bot)):
            return "T" if isinstance(g, Top) else "F"
        if isinstance(g, (Forall, Exists)):
            return _REF_TAGS[type(g)] + cform(g.body)
        return _REF_TAGS[type(g)] + cform(g.left) + "," + cform(g.right) + ")"

    return cform(f), tuple(holes)


def reference_state_keys(prover, s: Sequent, counts: dict) -> tuple[str, tuple]:
    """The ground engine's loop-check and failure-cache keys of state s, as
    joined strings: every antecedent member is its template, the templates
    are sorted, and the constants outside the root's vocabulary are renamed
    by first occurrence over them and then over the goal's.  The loop key
    keeps one copy of each member, except of the members the prover's mode
    splits eagerly; the cache key keeps every copy, and the tallies."""
    from seqcalc.search import _symbols_everywhere

    root = _symbols_everywhere(prover.root)
    items = sorted(_reference_template(f, root) for f in s.ante)
    gt, gcs = _reference_template(s.succ[0], root)
    mapping: dict[str, str] = {}

    def rename(consts: tuple[str, ...]) -> str:
        return ",".join(mapping.setdefault(c, f"!{len(mapping)}") for c in consts)

    parts = [t + "/" + rename(cs) if cs else t for t, cs in items]
    goal = gt + "/" + rename(gcs) if gcs else gt
    eager = tuple(_REF_TAGS[k] for k in prover._eager)
    kept = [p for i, p in enumerate(parts) if i == 0 or p != parts[i - 1] or p.startswith(eager)]
    tallies = tuple(sorted(kv for kv in counts.items() if kv[1]))
    return ";".join(kept) + "|-" + goal, (";".join(parts) + "|-" + goal, tallies)


# ---------------------------------------------------------------------------
# the classical prover's live metavariables at an eigenvariable step


def _quantified_term(rng: random.Random, depth: int) -> Term:
    k = rng.randrange(5 if depth else 3)
    if k < 2:
        return Var("xy"[k])
    if k == 2:
        return Const(rng.choice("ab"))
    if k == 3:
        return App("f", (_quantified_term(rng, depth - 1),))
    return App("g", (_quantified_term(rng, depth - 1), _quantified_term(rng, depth - 1)))


def _quantified_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Atom("p", (_quantified_term(rng, 1),))
        return Atom("r", (_quantified_term(rng, 1), _quantified_term(rng, 1)))
    k = rng.randrange(5)
    if k < 3:
        return (And, Or, Imp)[k](_quantified_formula(rng, depth - 1), _quantified_formula(rng, depth - 1))
    return (forall, exists)[k - 3](rng.choice("xy"), _quantified_formula(rng, depth - 1))


def random_quantified_sequent(rng: random.Random) -> Sequent:
    """A closed first-order sequent for the classical prover: 1-3
    antecedent universals and 1-2 succedent existentials, each over a binary
    connective whose operands nest further quantifiers over unary and binary
    function terms.  Its searches reach eigenvariable steps whose
    metavariables are bound, some of them to terms holding further
    metavariables: the instances of the outer quantifiers split, and the
    first branch's closure binds what the second branch opens."""

    def closed(binder) -> Formula:
        v = rng.choice("xy")
        split = rng.choice((And, Or, Imp))
        f = binder(v, split(_quantified_formula(rng, rng.randint(1, 3)), _quantified_formula(rng, rng.randint(1, 3))))
        return instantiate(forall("y", instantiate(forall("x", f), Const("a"))), Const("b"))

    ante = tuple(closed(forall) for _ in range(rng.randint(1, 3)))
    return Sequent(ante, tuple(closed(exists) for _ in range(rng.randint(1, 2))))


def reference_live_metas(s: Sequent, subst) -> list[int]:
    """The metavariables of s under subst, as the classical prover first
    found them at an eigenvariable step: every member resolved under subst,
    then scanned."""
    return sorted(metas_in(map_terms(f, lambda a, _: subst.resolve_term(a)) for f in s.ante + s.succ))


# ---------------------------------------------------------------------------
# the classical prover's metavariable search without its failure memo


def _reference_collapse(t: Term, eigens: set[str]) -> Term:
    if isinstance(t, App):
        if t.name in eigens:
            return Const(t.name)
        return App(t.name, tuple(_reference_collapse(a, eigens) for a in t.args))
    return t


@dataclass
class _Skel:
    """Proof node under construction; sequents may still contain metavariables."""

    rule: RuleId
    seq: Sequent
    premises: tuple["_Skel", ...] = ()
    side: str | None = None
    pformula: Formula | None = None
    witness: Term | None = None
    eigen: str | None = None


def reference_classical_prover(root: Sequent, limits):
    """A classical prover whose metavariable search is the un-memoized
    recursive one: solve yields every closing of a sequent, searching every
    premise afresh, the second premise of a rule once per substitution the
    first yields, and grounding scans the resolved skeleton for leftover
    metavariables and symbols before it grounds each member.  Its skeletons
    are _Skel nodes, each naming its principal by the formula rather than
    its index.  A sequent closes by is_axiom, then by bottom, then by a
    pair of members unified, and it takes the prover's own invertible
    step, so the two search the same tree.  It counts each instantiation
    refused at the multiplicity where it happens, which run reads to stop
    deepening; run gives a quantifier-free root one round, which decides
    it.  Built as a subclass so it shares the rest of the prover."""
    from seqcalc.calculus import premises
    from seqcalc.search import (
        _INSTANTIATIONS,
        CLASSICAL_STAR,
        NotProvedWithinLimits,
        Proved,
        Refuted,
        Subst,
        _ClassicalProver,
        _closing_first_step,
        _has_bot,
        _OutOfNodes,
        _reserved_prefix,
        _symbols_everywhere,
        is_quantifier_free_sequent,
        unify_formulas,
    )
    from seqcalc.syntax import free_symbols

    class ReferenceClassicalProver(_ClassicalProver):
        def run(self):
            qf = is_quantifier_free_sequent(self.root)
            try:
                for mult in range(1, (1 if qf else self.limits.quantifier_budget) + 1):
                    refused = self.refused
                    for subst, skel in self.solve(self.root, Subst(), {}, mult):
                        return Proved(self._ground(skel, subst), CLASSICAL_STAR)
                    if self.refused == refused:
                        break
            except _OutOfNodes:
                return NotProvedWithinLimits()
            return Refuted() if qf else NotProvedWithinLimits()

        def solve(self, s, subst, counts, mult):
            self.tick()
            strengthened = self.limits.strengthened_axioms
            if is_axiom(s, strengthened):
                yield subst, _Skel(RuleId.AXIOM, s)
                return
            if s.succ and _has_bot(s.ante):
                (premise,) = premises(RuleId.BOT_R, s, 0, s.succ[0])
                yield subst, _Skel(RuleId.BOT_R, s, (_Skel(RuleId.AXIOM, premise),), "succ", s.succ[0])
                return
            alternatives = []
            for a in s.ante:
                for b in s.succ:
                    if (strengthened or isinstance(a, (Atom, Bot))) and type(a) is type(b):
                        nxt = unify_formulas(a, b, subst)
                        if nxt is subst:
                            yield subst, _Skel(RuleId.AXIOM, s)
                            return
                        if nxt is not None:
                            alternatives.append(nxt)
            for nxt in alternatives:
                yield nxt, _Skel(RuleId.AXIOM, s)
            step = _closing_first_step(s, strengthened)
            if step is not None:
                rule, side, i, f = step
                term = eigen = None
                if type(f) in (Exists, Forall):
                    eigen = self.fresh_eigen()
                    live = self._live_metas(s, subst)
                    term = App(eigen, tuple(Meta(m) for m in live)) if live else Const(eigen)
                for sb, subs in self._solve_all(premises(rule, s, i, f, term), subst, counts, mult):
                    yield sb, _Skel(rule, s, subs, side, f, eigen=eigen)
                return
            for side, k, rule in _INSTANTIATIONS:
                for i, f in enumerate(s.ante if side == "ante" else s.succ):
                    if type(f) is k and counts.get(f, 0) >= mult:
                        # counted as it happens: run stops deepening after a
                        # round that refused nothing
                        self.refused += 1
                    elif type(f) is k:
                        m = Meta(self.next_meta)
                        self.next_meta += 1
                        c2 = dict(counts)
                        c2[f] = c2.get(f, 0) + 1
                        (premise,) = premises(rule, s, i, f, m)
                        for sb, sk in self.solve(premise, subst, c2, mult):
                            yield sb, _Skel(rule, s, (sk,), side, f, witness=m)

        def _solve_all(self, prems, subst, counts, mult):
            if len(prems) == 1:
                for sb, sk in self.solve(prems[0], subst, counts, mult):
                    yield sb, (sk,)
                return
            p1, p2 = prems
            for sb1, sk1 in self.solve(p1, subst, counts, mult):
                for sb2, sk2 in self.solve(p2, sb1, counts, mult):
                    yield sb2, (sk1, sk2)

        def _ground(self, skel, subst):
            leftovers: set[int] = set()
            taken = _symbols_everywhere(self.root)
            symbols = taken | self.made

            def scan(sk) -> None:
                resolved = [map_terms(f, lambda a, _: subst.resolve_term(a)) for f in sk.seq.ante + sk.seq.succ]
                leftovers.update(metas_in(resolved))
                symbols.update(free_symbols(resolved))
                if sk.witness is not None:
                    w = subst.resolve_term(sk.witness)
                    leftovers.update(metas_in(w))
                    symbols.update(free_symbols(w))
                for p in sk.premises:
                    scan(p)

            scan(skel)
            prefix = _reserved_prefix("c", taken)
            k = 0
            while f"{prefix}{k}" in symbols:
                k += 1
            blank = Const(f"{prefix}{k}")
            fill = Subst({i: blank for i in leftovers})

            def gterm(t: Term) -> Term:
                return _reference_collapse(fill.resolve_term(subst.resolve_term(t)), self.made)

            def build(sk) -> Proof:
                seq = Sequent(
                    tuple(map_terms(f, lambda a, _: gterm(a)) for f in sk.seq.ante),
                    tuple(map_terms(f, lambda a, _: gterm(a)) for f in sk.seq.succ),
                )
                principal = None
                if sk.pformula is not None:
                    pf = map_terms(sk.pformula, lambda a, _: gterm(a))
                    principal = (sk.side, (seq.ante if sk.side == "ante" else seq.succ).index(pf))
                witness = None if sk.witness is None else gterm(sk.witness)
                return Proof(sk.rule, seq, tuple(build(p) for p in sk.premises), principal, witness, sk.eigen)

            return build(skel)

    return ReferenceClassicalProver(root, limits)


# ---------------------------------------------------------------------------
# the quantifier-free decision's step, chosen by building every premise


def _closes(s: Sequent, strengthened: bool) -> bool:
    """s is an axiom, or has bottom on the left and a succedent."""
    return is_axiom(s, strengthened) or bool(s.succ) and any(isinstance(f, Bot) for f in s.ante)


def reference_closing_first_step(s: Sequent, strengthened: bool):
    """The step the classical decision takes on s, as (rule, side, index,
    principal), or None: the first one-premise invertible rule, antecedent
    first; else the two-premise one whose premises, built by
    reference_premises, leave the fewest that do not close, the first such on
    ties.  An eigenvariable rule has one premise whatever its eigenvariable,
    so each is built with one placeholder name."""
    candidates = []
    for side, members in (("ante", s.ante), ("succ", s.succ)):
        for i, f in enumerate(members):
            rule = INVERTIBLE[side].get(type(f))
            if rule is not None:
                candidates.append(((rule, side, i, f), reference_premises(rule, s, i, f, eigen="e")))
    for step, prems in candidates:
        if len(prems) == 1:
            return step
    if not candidates:
        return None
    return min(candidates, key=lambda c: sum(not _closes(p, strengthened) for p in c[1]))[0]


# ---------------------------------------------------------------------------
# the ground engine's visit without failure subsumption


def reference_is_quantifier_free(f: Formula) -> bool:
    """Whether f has no quantifier, by walking its formula nodes."""
    stack = [f]
    while stack:
        g = stack.pop()
        k = type(g)
        if k is And or k is Or or k is Imp:
            stack.append(g.left)
            stack.append(g.right)
        elif k is Forall or k is Exists:
            return False
    return True


def reference_ground_prover(root: Sequent, limits, uniform: bool, restart_goal: Formula | None = None):
    """A ground prover whose visit is the earlier one: every state gets one
    generator, closures test is_axiom, and a state is skipped only on a
    recorded failure of the same state, with the same tallies and at least
    as much depth; no failure subsumes another.  The quantifier-free flag
    comes from the walk above.  Built as a subclass so it shares the rest
    of the prover: its _enter replaces the engine's, and calculus.drive
    runs it alike."""
    from seqcalc.calculus import is_axiom, premises
    from seqcalc.search import _NO_CYCLE, _GroundProver, _has_bot

    class ReferenceGroundProver(_GroundProver):
        def __init__(self, *args):
            super().__init__(*args)
            self.quantifier_free = all(map(reference_is_quantifier_free, root.ante + root.succ))

        def _enter(self, s, depth, counts):
            self.tick()
            goal = s.succ[0]
            if is_axiom(s, self.limits.strengthened_axioms):
                if not self.uniform or isinstance(goal, (Atom, Top, Bot)):
                    return Proof(RuleId.AXIOM, s)
            if _has_bot(s.ante) and not isinstance(goal, Bot) and (not self.uniform or isinstance(goal, Atom)):
                (premise,) = premises(RuleId.BOT_R, s, 0, goal)
                return Proof(RuleId.BOT_R, s, (Proof(RuleId.AXIOM, premise),), ("succ", 0))
            loop_key, cache_key = self._canon(s, counts)
            seen_at = self._path.get(loop_key)
            if seen_at is not None:
                if seen_at < self._low:
                    self._low = seen_at
                self.prunes += 1
                return None
            failed_depth = self.failed.get(cache_key)
            if failed_depth is not None and depth <= failed_depth:
                return None
            if depth <= 0:
                return None
            level = len(self._path)
            self._path[loop_key] = level
            outer_low, self._low = self._low, _NO_CYCLE
            mark = len(self._pending)
            if self.uniform:
                result = yield from self._search_uniform(s, goal, depth - 1, counts)
            else:
                result = yield from self._search_starred(s, goal, depth - 1, counts)
            del self._path[loop_key]
            if result is not None:
                del self._pending[mark:]
                self._low = outer_low
                return result
            if self._low >= level:
                for key, d in self._pending[mark:]:
                    prev = self.failed.get(key)
                    if prev is None or prev < d:
                        self.failed[key] = d
                del self._pending[mark:]
                if failed_depth is None or failed_depth < depth:
                    self.failed[cache_key] = depth
                self._low = outer_low
            else:
                self._pending.append((cache_key, depth))
                if outer_low < self._low:
                    self._low = outer_low
            return None

    return ReferenceGroundProver(root, limits, uniform, restart_goal)


def random_goal_sequent(rng: random.Random, repeat_share: float = 0.3) -> Sequent:
    """A quantifier-free sequent with 1-4 antecedent members, one goal and
    3-10 connectives in all, over PROP_LEAVES and r(a).  Compound members
    may repeat: in repeat_share of the draws one compound antecedent member,
    where there is one, is there twice, and else another member."""
    leaves = PROP_LEAVES + (Atom("r", (Const("a"),)),)
    n_ante = rng.randint(1, 4)
    sizes = [0] * (n_ante + 1)
    for _ in range(rng.randint(3, 10)):
        sizes[rng.randrange(len(sizes))] += 1
    members = [random_propositional(rng, k, leaves) for k in sizes]
    ante, goal = members[:-1], members[-1]
    if rng.random() < repeat_share:
        compound = [f for f in ante if isinstance(f, (And, Or, Imp))]
        ante.append(rng.choice(compound or ante))
    return Sequent(ante, (goal,))


# ---------------------------------------------------------------------------
# the ground engine's relevance check as a scan over every head


def _reference_mentions_bound(t: Term) -> bool:
    return isinstance(t, Bound) or isinstance(t, App) and any(map(_reference_mentions_bound, t.args))


def _reference_heads(f: Formula) -> set[tuple]:
    """Atoms in positive position within f as (predicate, arguments), slots
    holding a bound variable wildcarded to None; bottom is ("", ())."""
    if isinstance(f, Atom):
        return {(f.pred, tuple(None if _reference_mentions_bound(a) else a for a in f.args))}
    if isinstance(f, Bot):
        return {("", ())}
    if isinstance(f, (And, Or)):
        return _reference_heads(f.left) | _reference_heads(f.right)
    if isinstance(f, Imp):
        return _reference_heads(f.right)
    if isinstance(f, (Forall, Exists)):
        return _reference_heads(f.body)
    return set()


def reference_attainable(s: Sequent, goal: Formula) -> bool:
    """Whether some antecedent head could close the atomic or bottom goal,
    as the ground engine first decided it: a scan over every head of every
    member, where a positive bottom closes any goal."""
    pred, args = (goal.pred, goal.args) if isinstance(goal, Atom) else ("", ())
    for f in s.ante:
        for hp, ha in _reference_heads(f):
            if hp == "":
                return True
            if hp == pred and len(ha) == len(args) and all(a is None or a == b for a, b in zip(ha, args)):
                return True
    return False


# ---------------------------------------------------------------------------
# weakening, freshening and rebinding by recursion, one walk per rename: the
# reference for transform._rewrite, which must return the same proofs and
# raise the same errors


def _reference_rename_seq(s: Sequent, old: str, new: str) -> Sequent:
    return Sequent(
        tuple(reference_rename_constant(f, old, new) for f in s.ante),
        tuple(reference_rename_constant(f, old, new) for f in s.succ),
    )


def _reference_rename_eigen_subtree(p, old: str, new: str):
    """Rename a constant throughout a subtree, eigen bindings included."""
    concl = _reference_rename_seq(p.conclusion, old, new)
    principal = None
    if p.principal is not None:
        side, idx = p.principal
        src = p.conclusion.ante if side == "ante" else p.conclusion.succ
        pf = reference_rename_constant(src[idx], old, new)
        dst = concl.ante if side == "ante" else concl.succ
        principal = (side, dst.index(pf))
    witness = reference_rename_constant(p.witness, old, new) if p.witness is not None else None
    eigen = new if p.eigen == old else p.eigen
    premises = tuple(_reference_rename_eigen_subtree(q, old, new) for q in p.premises)
    return Proof(p.rule, concl, premises, principal, witness, eigen)


def _reference_avoid_eigens(p, avoid: set[str], taken: set[str]):
    if p.eigen and p.eigen in avoid:
        new = fresh_name(p.eigen, taken | avoid)
        taken.add(new)
        p = _reference_rename_eigen_subtree(p, p.eigen, new)
    if not p.premises:
        return p
    return replace(p, premises=tuple(_reference_avoid_eigens(q, avoid, taken) for q in p.premises))


def reference_freshen_eigens(p, avoid):
    """Rename every eigenvariable of p that collides with a name in avoid."""
    return _reference_avoid_eigens(p, set(avoid), _tree_symbols(p))


def reference_rebind_eigen(q, old: str, new: str):
    """Freshen the eigenvariables named new, then rename old to new."""
    if old == new:
        return q
    q = reference_freshen_eigens(q, {new})
    return _reference_rename_eigen_subtree(q, old, new)


def _reference_widen(p, ea: tuple, es: tuple):
    s = p.conclusion
    t = s.plus(ante=ea, succ=es)
    rule = p.rule
    if rule is RuleId.AXIOM:
        return Proof(RuleId.AXIOM, t)
    if rule in (RuleId.RESTART, RuleId.OR_L_RESTART) and es:
        raise TransformError("cannot weaken the succedent of a restart-rule node")
    if rule in (RuleId.IMP_L, RuleId.IMP_L_STAR_INT):
        premises = (_reference_widen(p.premises[0], ea, ()), _reference_widen(p.premises[1], ea, es))
    else:
        premises = tuple(_reference_widen(q, ea, es) for q in p.premises)
    formula = _principal_formula(p) if p.principal is not None else None
    side = p.principal[0] if p.principal is not None else None
    return _node(rule, t, premises, side, formula, p.witness, p.eigen)


def reference_weaken(p, extra_ante=(), extra_succ=()):
    """Weakening as four walks: the rule usage, the tree's symbols, the
    freshening and the widening."""
    extra_ante = tuple(extra_ante)
    extra_succ = tuple(extra_succ)
    if not extra_ante and not extra_succ:
        return p
    if extra_succ and RuleId.IMP_L_STAR_INT in rule_usage(p):
        raise TransformError("cannot weaken the succedent through a single-succedent implication-left rule")
    avoid = set(free_symbols(extra_ante)) | set(free_symbols(extra_succ))
    if avoid:
        p = reference_freshen_eigens(p, avoid)
    return _reference_widen(p, extra_ante, extra_succ)


# ---------------------------------------------------------------------------
# per-rule proof transforms: the reference for seqcalc.transform's generic
# steps, which read each rule's premises from calculus.premises and must
# return the same proofs and raise the same errors


def reference_identity_proof(f: Formula) -> Proof:
    """A starred-calculus proof of ⟨f ⊢ f⟩ closing only on atomic axioms."""
    return _reference_eta(Sequent((f,), (f,)), f)


def _without(side: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    """side less f itself, not an alpha-variant of it."""
    i = next(i for i, g in enumerate(side) if g is f)
    return side[:i] + side[i + 1 :]


def _reference_eta(s: Sequent, f: Formula) -> Proof:
    """A proof of s, which holds f itself on both sides, closing only on
    atomic axioms: one case per connective, its leaf sequents written out
    with their context, gamma and delta being s's sides less f itself.  Each
    principal is f itself; an eigenvariable is fresh for the sequent it is
    introduced in."""

    def node(rule, conclusion, prems, side, witness=None, eigen=None):
        formulas = conclusion.ante if side == "ante" else conclusion.succ
        principal = (side, next(i for i, g in enumerate(formulas) if g is f))
        return Proof(rule, conclusion, tuple(prems), principal, witness, eigen)

    gamma, delta = _without(s.ante, f), _without(s.succ, f)
    match f:
        case Atom() | Top() | Bot():
            return Proof(RuleId.AXIOM, s)
        case And(l, r):
            tops = [
                node(
                    RuleId.AND_L_STAR,
                    Sequent(s.ante, delta + (g,)),
                    [_reference_eta(Sequent(gamma + (l, r), delta + (g,)), g)],
                    "ante",
                )
                for g in (l, r)
            ]
            return node(RuleId.AND_R, s, tops, "succ")
        case Or(l, r):
            tops = [
                node(
                    RuleId.OR_R_STAR,
                    Sequent(gamma + (g,), s.succ),
                    [_reference_eta(Sequent(gamma + (g,), delta + (l, r)), g)],
                    "succ",
                )
                for g in (l, r)
            ]
            return node(RuleId.OR_L, s, tops, "ante")
        case Imp(l, r):
            p1 = _reference_eta(Sequent(gamma + (l,), delta + (r, l)), l)
            p2 = _reference_eta(Sequent(gamma + (l, r), delta + (r,)), r)
            inner = node(RuleId.IMP_L_STAR, Sequent(s.ante + (l,), delta + (r,)), [p1, p2], "ante")
            return node(RuleId.IMP_R, s, [inner], "succ")
        case Forall():
            c = fresh_name("c", free_symbols(s) | predicate_names(s))
            inst = instantiate(f, Const(c))
            core = _reference_eta(Sequent(s.ante + (inst,), delta + (inst,)), inst)
            fl = node(RuleId.FORALL_L_STAR, Sequent(s.ante, delta + (inst,)), [core], "ante", Const(c))
            return node(RuleId.FORALL_R, s, [fl], "succ", eigen=c)
        case Exists():
            c = fresh_name("c", free_symbols(s) | predicate_names(s))
            inst = instantiate(f, Const(c))
            core = _reference_eta(Sequent(gamma + (inst,), s.succ + (inst,)), inst)
            er = node(RuleId.EXISTS_R_STAR, Sequent(gamma + (inst,), s.succ), [core], "succ", Const(c))
            return node(RuleId.EXISTS_L, s, [er], "ante", eigen=c)
    raise TransformError(f"cannot build an identity proof for {format_formula(f)}")


def _reference_drop_bot_succ(p):
    """Remove one succedent bottom from every sequent along the proof."""
    s = p.conclusion
    rest = multiset_minus(s.succ, (BOT,))
    if rest is None:
        raise TransformError(f"no bottom to drop in {s}")
    target = Sequent(s.ante, rest)
    rule = p.rule

    if rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        raise TransformError("bottom removal expects a contraction-free proof")
    if rule is RuleId.AXIOM:
        return _reclose(s, target, _reference_drop_bot_succ)

    pf = _principal_formula(p) if p.principal is not None else None
    if rule is RuleId.BOT_R and isinstance(pf, Bot):
        # degenerate bottom-for-bottom node: premise proves the same sequent
        return _reference_drop_bot_succ(p.premises[0])

    premises = tuple(_reference_drop_bot_succ(q) for q in p.premises)
    pside = p.principal[0] if p.principal is not None else None
    return _node(rule, target, premises, pside, pf, p.witness, p.eigen)


def _reference_contract_once(p, side: str, f: Formula):
    """Contraction of one copy of f, one case per consuming rule."""
    s = p.conclusion
    if side == "ante":
        rest = multiset_minus(s.ante, (f,))
        if rest is None:
            raise TransformError(f"{format_formula(f)} missing from the antecedent of {s}")
        target = Sequent(rest, s.succ)
    else:
        rest = multiset_minus(s.succ, (f,))
        if rest is None:
            raise TransformError(f"{format_formula(f)} missing from the succedent of {s}")
        target = Sequent(s.ante, rest)

    rule = p.rule
    if rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        raise TransformError("contraction elimination expects contraction-free subproofs")
    if rule is RuleId.AXIOM:
        return _reclose(s, target, lambda q: _reference_contract_once(q, side, f))

    pf = _principal_formula(p) if p.principal is not None else None
    pside = p.principal[0] if p.principal is not None else None
    consuming = pf == f and pside == side and (
        rule is INVERTIBLE[side].get(type(f)) or rule in (RuleId.IMP_L_STAR_INT, RuleId.BOT_R)
    )

    if not consuming:
        try:
            premises = tuple(_reference_contract_once(q, side, f) for q in p.premises)
        except TransformError as exc:
            dropping = {
                RuleId.AND_L_LEFT,
                RuleId.AND_L_RIGHT,
                RuleId.OR_R_LEFT,
                RuleId.OR_R_RIGHT,
                RuleId.FORALL_L,
                RuleId.EXISTS_R,
                RuleId.IMP_L,
            }
            if rule in dropping and (pf == f and pside == side or rule is RuleId.IMP_L and side == "succ"):
                raise TransformError(
                    f"contraction elimination expects starred-calculus proofs: {rule.value} drops "
                    f"a copy of {format_formula(f)} that it treats as context"
                ) from exc
            raise
        return _node(rule, target, premises, pside, pf, p.witness, p.eigen)

    invert, contract = _invert_once, _reference_contract_once
    match rule:
        case RuleId.AND_L_STAR:
            q = invert(p.premises[0], "ante", f)
            q = contract(q, "ante", f.left)
            q = contract(q, "ante", f.right)
            return _node(rule, target, [q], "ante", f)
        case RuleId.OR_L:
            a = contract(invert(p.premises[0], "ante", f, which=0), "ante", f.left)
            b = contract(invert(p.premises[1], "ante", f, which=1), "ante", f.right)
            return _node(rule, target, [a, b], "ante", f)
        case RuleId.IMP_L_STAR:
            a = contract(invert(p.premises[0], "ante", f, which=0), "succ", f.left)
            b = contract(invert(p.premises[1], "ante", f, which=1), "ante", f.right)
            return _node(rule, target, [a, b], "ante", f)
        case RuleId.IMP_L_STAR_INT:
            a = contract(p.premises[0], "ante", f)
            b = contract(invert(p.premises[1], "ante", f, which=1), "ante", f.right)
            return _node(rule, target, [a, b], "ante", f)
        case RuleId.EXISTS_L:
            c = p.eigen
            q = reference_freshen_eigens(p.premises[0], {c})
            q = invert(q, "ante", f, eigen=c)
            q = contract(q, "ante", instantiate(f, Const(c)))
            return _node(rule, target, [q], "ante", f, eigen=c)
        case RuleId.AND_R:
            a = contract(invert(p.premises[0], "succ", f, which=0), "succ", f.left)
            b = contract(invert(p.premises[1], "succ", f, which=1), "succ", f.right)
            return _node(rule, target, [a, b], "succ", f)
        case RuleId.OR_R_STAR:
            q = invert(p.premises[0], "succ", f)
            q = contract(q, "succ", f.left)
            q = contract(q, "succ", f.right)
            return _node(rule, target, [q], "succ", f)
        case RuleId.IMP_R:
            q = invert(p.premises[0], "succ", f)
            q = contract(q, "ante", f.left)
            q = contract(q, "succ", f.right)
            return _node(rule, target, [q], "succ", f)
        case RuleId.FORALL_R:
            c = p.eigen
            q = reference_freshen_eigens(p.premises[0], {c})
            q = invert(q, "succ", f, eigen=c)
            q = contract(q, "succ", instantiate(f, Const(c)))
            return _node(rule, target, [q], "succ", f, eigen=c)
        case RuleId.BOT_R:
            return _reference_drop_bot_succ(p.premises[0])
    raise TransformError(f"cannot contract past rule {rule.value}")


def reference_eliminate_contractions(p):
    premises = tuple(reference_eliminate_contractions(q) for q in p.premises)
    if p.rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        side = "ante" if p.rule is RuleId.CONTR_L else "succ"
        return _reference_contract_once(premises[0], side, _principal_formula(p))
    if premises == p.premises:
        return p
    return replace(p, premises=premises)


def reference_expand_starred(p):
    """Starred-rule expansion, each sequent of the decomposition built by hand."""
    premises = tuple(reference_expand_starred(q) for q in p.premises)
    s = p.conclusion
    rule = p.rule

    if rule is RuleId.AND_L_STAR:
        f = _principal_formula(p)
        rest = multiset_minus(s.ante, (f,))
        step_r = _node(RuleId.AND_L_RIGHT, Sequent(rest + (f.left, f), s.succ), [premises[0]], "ante", f)
        step_l = _node(RuleId.AND_L_LEFT, Sequent(rest + (f, f), s.succ), [step_r], "ante", f)
        return _node(RuleId.CONTR_L, s, [step_l], "ante", f)
    if rule is RuleId.OR_R_STAR:
        f = _principal_formula(p)
        rest = multiset_minus(s.succ, (f,))
        step_r = _node(RuleId.OR_R_RIGHT, Sequent(s.ante, rest + (f.left, f)), [premises[0]], "succ", f)
        step_l = _node(RuleId.OR_R_LEFT, Sequent(s.ante, rest + (f, f)), [step_r], "succ", f)
        return _node(RuleId.CONTR_R, s, [step_l], "succ", f)
    if rule is RuleId.FORALL_L_STAR:
        f = _principal_formula(p)
        inner = _node(RuleId.FORALL_L, s.plus(ante=(f,)), [premises[0]], "ante", f, witness=p.witness)
        return _node(RuleId.CONTR_L, s, [inner], "ante", f)
    if rule is RuleId.EXISTS_R_STAR:
        f = _principal_formula(p)
        inner = _node(RuleId.EXISTS_R, s.plus(succ=(f,)), [premises[0]], "succ", f, witness=p.witness)
        return _node(RuleId.CONTR_R, s, [inner], "succ", f)
    if rule is RuleId.IMP_L_STAR_INT:
        f = _principal_formula(p)
        doubled = s.plus(ante=(f,))
        second = reference_weaken(premises[1], extra_ante=(f,))
        inner = _node(RuleId.IMP_L, doubled, [premises[0], second], "ante", f)
        return _node(RuleId.CONTR_L, s, [inner], "ante", f)
    if rule is RuleId.IMP_L_STAR:
        f = _principal_formula(p)
        doubled_ante = s.ante + (f,)
        first = reference_weaken(premises[0], extra_ante=(f,))
        second = reference_weaken(premises[1], extra_ante=(f,))
        cur = _node(RuleId.IMP_L, Sequent(doubled_ante, s.succ + s.succ), [first, second], "ante", f)
        acc = list(s.succ + s.succ)
        for d in s.succ:
            acc.remove(d)
            cur = _node(RuleId.CONTR_R, Sequent(doubled_ante, tuple(acc)), [cur], "succ", d)
        return _node(RuleId.CONTR_L, s, [cur], "ante", f)

    if premises == p.premises:
        return p
    return replace(p, premises=premises)


def reference_starify(p):
    """Plain rules to their starred forms, the kept parts named by hand;
    imp-l, which the starred round trip never meets, stays plain."""
    premises = tuple(reference_starify(q) for q in p.premises)
    s = p.conclusion
    rule = p.rule

    if rule in (RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT):
        f = _principal_formula(p)
        other = f.right if rule is RuleId.AND_L_LEFT else f.left
        q = reference_weaken(premises[0], extra_ante=(other,))
        return _node(RuleId.AND_L_STAR, s, [q], "ante", f)
    if rule is RuleId.FORALL_L:
        f = _principal_formula(p)
        q = reference_weaken(premises[0], extra_ante=(f,))
        return _node(RuleId.FORALL_L_STAR, s, [q], "ante", f, witness=p.witness)
    if rule in (RuleId.OR_R_LEFT, RuleId.OR_R_RIGHT):
        f = _principal_formula(p)
        other = f.right if rule is RuleId.OR_R_LEFT else f.left
        q = reference_weaken(premises[0], extra_succ=(other,))
        return _node(RuleId.OR_R_STAR, s, [q], "succ", f)
    if rule is RuleId.EXISTS_R:
        f = _principal_formula(p)
        q = reference_weaken(premises[0], extra_succ=(f,))
        return _node(RuleId.EXISTS_R_STAR, s, [q], "succ", f, witness=p.witness)

    if premises == p.premises:
        return p
    return replace(p, premises=premises)


def reference_extract_some_goal(p):
    s = p.conclusion
    rule = p.rule

    if rule is RuleId.AXIOM:
        for g in s.succ:
            if isinstance(g, Top):
                return Proof(RuleId.AXIOM, Sequent(s.ante, (g,)))
        for g in s.succ:
            if g in s.ante:
                return Proof(RuleId.AXIOM, Sequent(s.ante, (g,)))
        raise TransformError(f"axiom node is not closed: {s}")

    if rule is RuleId.CONTR_L:
        f = _principal_formula(p)
        q = reference_extract_some_goal(p.premises[0])
        return _node(rule, Sequent(s.ante, q.conclusion.succ), [q], "ante", f)
    if rule is RuleId.CONTR_R:
        return reference_extract_some_goal(p.premises[0])
    if rule is RuleId.BOT_R:
        f = _principal_formula(p)
        q = reference_extract_some_goal(p.premises[0])
        if q.conclusion.succ[0] in set(s.succ):
            return q
        return _node(rule, Sequent(s.ante, (f,)), [q], "succ", f)

    if rule in (RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT, RuleId.FORALL_L, RuleId.EXISTS_L):
        f = _principal_formula(p)
        q = reference_extract_some_goal(p.premises[0])
        return _node(rule, Sequent(s.ante, q.conclusion.succ), [q], "ante", f, p.witness, p.eigen)

    if rule is RuleId.AND_R:
        f = _principal_formula(p)
        others = set(multiset_minus(s.succ, (f,)))
        q1 = reference_extract_some_goal(p.premises[0])
        if q1.conclusion.succ[0] in others:
            return q1
        q2 = reference_extract_some_goal(p.premises[1])
        if q2.conclusion.succ[0] in others:
            return q2
        return _node(rule, Sequent(s.ante, (f,)), [q1, q2], "succ", f)

    if rule in (RuleId.OR_R_LEFT, RuleId.OR_R_RIGHT, RuleId.EXISTS_R, RuleId.FORALL_R):
        f = _principal_formula(p)
        others = set(multiset_minus(s.succ, (f,)))
        q = reference_extract_some_goal(p.premises[0])
        if q.conclusion.succ[0] in others:
            return q
        return _node(rule, Sequent(s.ante, (f,)), [q], "succ", f, p.witness, p.eigen)

    if rule is RuleId.IMP_L:
        f = _principal_formula(p)
        delta1 = multiset_minus(p.premises[0].conclusion.succ, (f.left,))
        if delta1 is None:
            raise TransformError(f"malformed implication-left node at {s}")
        q1 = reference_extract_some_goal(p.premises[0])
        if q1.conclusion.succ[0] in set(delta1):
            return reference_weaken(q1, extra_ante=(f,))
        q2 = reference_extract_some_goal(p.premises[1])
        return _node(rule, Sequent(s.ante, q2.conclusion.succ), [q1, q2], "ante", f)

    raise TransformError(f"rule {rule.value} cannot appear in this extraction")


def reference_extract_intuitionistic(p):
    starred = {
        RuleId.AND_L_STAR,
        RuleId.OR_R_STAR,
        RuleId.FORALL_L_STAR,
        RuleId.EXISTS_R_STAR,
        RuleId.IMP_L_STAR,
        RuleId.IMP_L_STAR_INT,
    }
    if starred & set(rule_usage(p)):
        p = reference_expand_starred(p)
    fams = {rule_family(r) for r in rule_usage(p)}
    some_goal, round_trip = FORBIDDEN_FAMILIES[1], FORBIDDEN_FAMILIES[4]
    if not fams & some_goal:
        return reference_extract_some_goal(p)
    if not fams & round_trip:
        if len(p.conclusion.succ) != 1:
            raise TransformError("the starred round-trip extraction needs a single-succedent end sequent")
        return reference_expand_starred(reference_eliminate_contractions(reference_starify(p)))
    blocking = sorted(fams & (some_goal | round_trip))
    raise TransformError(f"proof uses {', '.join(blocking)}; no extraction path applies")
