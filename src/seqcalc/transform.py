"""Structural transformations on proof objects.

All operations are pure functions from valid proofs to valid proofs:

* ``weaken`` widens every sequent in a proof by extra context formulas
  without increasing its height, renaming eigenvariables when the new
  formulas would capture them.
* ``eliminate_contractions`` removes contraction nodes from a proof in the
  starred calculus, by induction on the contracted formula and the height of
  the contraction-free subproof above, using height-preserving inversion.
* ``expand_starred`` rewrites each starred rule application into its plain
  decomposition (the underlying rule plus explicit contractions), so starred
  classical proofs become plain classical proofs and starred
  single-succedent proofs become plain single-succedent proofs.
* ``extract_intuitionistic`` turns an eligible classical proof into a
  single-succedent proof: either by picking one succedent member per branch
  (possible when implication-right and disjunction-left are absent), or by
  the starred round trip (possible when implication-left, disjunction-right
  and exists-right are absent and the end sequent has one succedent formula).
* ``augment`` adds the negation of the goal to the antecedent.

No transform restates a rule's premises: each reads them from
``calculus.premises``.  ``_PLAIN_STEPS`` pairs and-l*, or-r*, forall-l* and
exists-r* with the plain rules each expands into above a contraction on its
principal.  So contraction elimination takes one step for every rule that
consumes the contracted formula, and expansion and its inverse, ``_starify``,
one step for those four rules.  The sequents built by hand are not rule
premises: imp-l's succedent split, which the rule leaves free, and the
extraction's single-goal projections.  Transformations detect malformed
inputs lazily and raise TransformError.

No transform recurses on proof height or formula depth.  Weakening,
freshening and rebinding are one explicit-stack walk, ``_rewrite``;
``expand_starred``, ``_starify`` and the outer walk of
``eliminate_contractions`` are ``calculus.fold_proof`` callbacks.  The rest
run on ``calculus.drive``, as the ground search does.  Eta expansion, which
``identity_proof`` and ``_reclose`` use to turn a compound axiom into atomic
ones, is one visit, ``_eta``: per connective, the two rules of ``_ETA``,
each leaf built with its context in place, so ``weaken`` is not on its path.
Inversion and contraction settle axioms (through ``_reclose``) and the nodes
that act on their formula in one entry step per node, and hand every other
node to the one ``_context`` visit, which transforms each premise and
rebuilds the node.
"""

from __future__ import annotations

from operator import is_

from .calculus import (
    _CONNECTIVE_NAMES,
    _RULES,
    INVERTIBLE,
    Proof,
    RuleId,
    bottom_closure,
    drive,
    fold_proof,
    is_axiom,
    premises,
    proof_nodes,
    rule_family,
    rule_usage,
)
from .fragments import FORBIDDEN_FAMILIES
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
    format_formula,
    free_symbols,
    fresh_name,
    instantiate,
    multiset_minus,
    predicate_names,
    rename_constant,
)


class TransformError(Exception):
    """A proof transformation met an input it cannot handle."""


# ---------------------------------------------------------------------------
# node helpers


def _principal_formula(p: Proof) -> Formula:
    """p's principal formula, which must have the connective the rule table
    gives p's rule."""
    if p.principal is None:
        raise TransformError(f"rule {p.rule.value} node is missing its principal formula")
    side, idx = p.principal
    formulas = p.conclusion.ante if side == "ante" else p.conclusion.succ
    if not 0 <= idx < len(formulas):
        raise TransformError(f"principal index {idx} out of range in {p.conclusion}")
    f = formulas[idx]
    connective = _RULES.get(p.rule, (None, None))[1]
    if connective is not None and not isinstance(f, connective):
        name = _CONNECTIVE_NAMES[connective]
        raise TransformError(f"principal {format_formula(f)} of {p.rule.value} must be {name}")
    return f


def _node(
    rule: RuleId,
    conclusion: Sequent,
    premises,
    side: str | None = None,
    formula: Formula | None = None,
    witness: Term | None = None,
    eigen: str | None = None,
) -> Proof:
    """Build a node, locating the principal formula in the (re-sorted) sequent."""
    principal = None
    if formula is not None:
        formulas = conclusion.ante if side == "ante" else conclusion.succ
        try:
            principal = (side, formulas.index(formula))
        except ValueError:
            raise TransformError(
                f"principal {format_formula(formula)} does not occur in {conclusion}"
            ) from None
    return Proof(rule, conclusion, tuple(premises), principal, witness, eigen)


def _tree_symbols(p: Proof) -> set[str]:
    nodes = list(proof_nodes(p))
    parts = [n.conclusion for n in nodes] + [n.witness for n in nodes if n.witness is not None]
    return set(free_symbols(parts)) | {n.eigen for n in nodes if n.eigen}


def _renamed(s: Sequent, names: dict[str, str]) -> Sequent:
    """s with names renamed; s itself, not sorted anew, if no member changes."""
    ante, succ = ([rename_constant(f, names) for f in side] for side in (s.ante, s.succ))
    return s if all(map(is_, ante + succ, s.ante + s.succ)) else Sequent(ante, succ)


def _rebuilt(p: Proof, premises: tuple[Proof, ...]) -> Proof:
    """p over premises: p itself when each is the premise p has."""
    if all(map(is_, premises, p.premises)):
        return p
    return Proof(p.rule, p.conclusion, premises, p.principal, p.witness, p.eigen)


# ---------------------------------------------------------------------------
# weakening, freshening and rebinding: one rewrite


def _rewrite(p: Proof, names: dict[str, str], avoid, ante: tuple = (), succ: tuple = ()) -> Proof:
    """p with the constants names maps renamed, each eigenvariable in avoid
    freshened throughout its subtree when the walk reaches its node (so in
    pre-order), and every sequent widened by ante and succ (an imp-l's first
    premise by ante only).  Sound on valid proofs, which reuse an eigenvariable
    name only where the outer one no longer occurs.  Keeps unchanged nodes."""
    taken = None
    done: list[Proof] = []
    stack: list = [(p, names, succ, False)]
    while stack:
        node, names, es, ready = stack.pop()
        rule = node.rule
        if not ready:
            x = node.eigen
            if x in avoid and x not in names:
                if taken is None:
                    taken = _tree_symbols(p) | avoid
                names = {**names, x: fresh_name(x, taken)}
                taken.add(names[x])
            if es and rule in (RuleId.RESTART, RuleId.OR_L_RESTART):
                raise TransformError("cannot weaken the succedent of a restart-rule node")
            stack.append((node, names, es, True))
            # imp-l's first premise drops the succedent context
            first = () if rule in (RuleId.IMP_L, RuleId.IMP_L_STAR_INT) else es
            prems = node.premises
            stack += [(prems[j], names, es if j else first, False) for j in range(len(prems) - 1, -1, -1)]
            continue
        n = len(done) - len(node.premises)
        premises = tuple(done[n:])
        del done[n:]
        if not names and not ante and not es:
            done.append(_rebuilt(node, premises))
            continue
        t, witness = node.conclusion, node.witness
        formula = _principal_formula(node) if node.principal is not None else None
        if names:
            t = _renamed(t, names)
            formula, witness = [x if x is None else rename_constant(x, names) for x in (formula, witness)]
        side = node.principal[0] if formula is not None else None
        eigen = names.get(node.eigen, node.eigen)
        done.append(_node(rule, t.plus(ante=ante, succ=es), premises, side, formula, witness, eigen))
    return done[0]


def weaken(p: Proof, extra_ante=(), extra_succ=()) -> Proof:
    """Widen every sequent of p by the extra formulas; height never grows.

    Eigenvariables that occur in the added formulas are renamed, so the
    freshness provisos keep holding.  Succedent weakening is rejected on
    restart-rule nodes, whose goal premise admits no extra succedent context,
    and on single-succedent implication-left nodes, whose left premise drops
    the succedent outright.
    """
    extra_ante = tuple(extra_ante)
    extra_succ = tuple(extra_succ)
    if not extra_ante and not extra_succ:
        return p
    if extra_succ and RuleId.IMP_L_STAR_INT in rule_usage(p):
        raise TransformError(
            "cannot weaken the succedent through a single-succedent implication-left rule"
        )
    return _rewrite(p, {}, free_symbols(extra_ante + extra_succ), extra_ante, extra_succ)


def _freshen_eigens(p: Proof, avoid) -> Proof:
    """Rename every eigenvariable of p that collides with a name in avoid."""
    return _rewrite(p, {}, avoid)


def _rebind_eigen(q: Proof, old: str, new: str) -> Proof:
    """q with old renamed to new and, at once, each eigenvariable new to a fresh name."""
    if old == new:
        return q
    return _rewrite(q, {old: new}, {new})


# ---------------------------------------------------------------------------
# identity proofs (eta expansion)


#: eta expansion per connective: the side of its invertible rule, that rule,
#: and the starred rule of the other side, applied in each premise of the first
_ETA: dict[type, tuple[str, RuleId, RuleId]] = {
    And: ("succ", RuleId.AND_R, RuleId.AND_L_STAR),
    Or: ("ante", RuleId.OR_L, RuleId.OR_R_STAR),
    Imp: ("succ", RuleId.IMP_R, RuleId.IMP_L_STAR),
    Forall: ("succ", RuleId.FORALL_R, RuleId.FORALL_L_STAR),
    Exists: ("ante", RuleId.EXISTS_L, RuleId.EXISTS_R_STAR),
}


def identity_proof(f: Formula) -> Proof:
    """A starred-calculus proof of ⟨f ⊢ f⟩ closing only on atomic axioms."""
    return drive(_eta, Sequent((f,), (f,)), f)


def _eta(s: Sequent, f: Formula):
    """The visit that drive runs to prove s, which holds f itself on both
    sides, closing only on atomic axioms, with s's context in place: an axiom
    when f is atomic, else the two rules of f's _ETA entry at f's own index.
    It yields (leaf, part) for each leaf they leave, in order; the parts are
    f's two sides, or its instance at an eigenvariable fresh for s."""
    if isinstance(f, (Atom, Top, Bot)):
        return Proof(RuleId.AXIOM, s)
    side, rule, star = _ETA[type(f)]
    other = "succ" if side == "ante" else "ante"
    c = Const(fresh_name("c", free_symbols(s) | predicate_names(s))) if isinstance(f, (Forall, Exists)) else None
    parts = iter((f.left, f.right) if c is None else (instantiate(f, c),))
    j = _own(s, side, f)
    tops = []
    for t in premises(rule, s, j, f, c):
        i = _own(t, other, f)
        leaves = []
        for u in premises(star, t, i, f, c):
            leaves.append((yield (u, next(parts))))
        tops.append(Proof(star, t, tuple(leaves), (other, i), c))
    return Proof(rule, s, tuple(tops), (side, j), None, None if c is None else c.name)


def _own(s: Sequent, side: str, f: Formula) -> int:
    """The index of f itself, not of an alpha-variant, on s's side."""
    return next(i for i, g in enumerate(s.ante if side == "ante" else s.succ) if g is f)


# ---------------------------------------------------------------------------
# height-preserving inversion


def _inverted_sequent(s: Sequent, side: str, f: Formula, which: int, eigen: str | None) -> Sequent:
    """The sequent obtained by replacing one occurrence of f with its premise parts."""
    try:
        index = (s.ante if side == "ante" else s.succ).index(f)
    except ValueError:
        where = "antecedent" if side == "ante" else "succedent"
        raise TransformError(f"{format_formula(f)} does not occur in the {where} of {s}") from None
    rule = INVERTIBLE[side].get(type(f))
    if rule is None:
        raise TransformError(f"no invertible rule applies to {format_formula(f)} on the {side} side")
    return premises(rule, s, index, f, None if eigen is None else Const(eigen))[which]


def _invert_once(p: Proof, side: str, f: Formula, which: int = 0, eigen: str | None = None) -> Proof:
    """Replace one occurrence of f in p's conclusion by its rule premise parts.

    Height-preserving on contraction-free starred proofs, except where a
    bottom-right node forces a rebuild through weakening (still bounded by
    the input height) or an axiom closed only under strengthened axioms
    needs a bottom-right step or eta expansion (see _reclose).
    """
    return drive(_inversion, p, side, f, which, eigen)


def _inversion(p: Proof, side: str, f: Formula, which: int, eigen: str | None):
    """The entry step of inversion at p: the proof when p's rule acts on f
    or p is an axiom, else the _context visit that inverts p's premises."""
    s = p.conclusion
    rule = p.rule

    if rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        raise TransformError("inversion expects a contraction-free proof")

    if rule is RuleId.AXIOM:
        t = _inverted_sequent(s, side, f, which, eigen)
        return _reclose(s, t, lambda q: _invert_once(q, side, f, which, eigen))

    pf = _principal_formula(p) if p.principal is not None else None
    pside = p.principal[0] if p.principal is not None else None

    if pf == f and pside == side:
        # the node acts on the very formula being inverted
        if rule in (RuleId.EXISTS_L, RuleId.FORALL_R):
            return _rebind_eigen(p.premises[0], p.eigen, eigen)
        if rule is INVERTIBLE[side].get(type(f)):
            return p.premises[which]
        if rule is RuleId.IMP_L_STAR_INT:
            if which == 0:
                raise TransformError("the goal premise of the single-succedent rule is not invertible")
            return p.premises[1]
        if rule is RuleId.BOT_R:
            # not invertible: rebuild by weakening the bottom premise
            t = _inverted_sequent(s, side, f, which, eigen)
            parts_succ = multiset_minus(t.succ, multiset_minus(s.succ, (f,)))
            parts_ante = multiset_minus(t.ante, s.ante)
            head = parts_succ[0]
            q = weaken(p.premises[0], parts_ante, multiset_minus(parts_succ, (head,)))
            return _node(RuleId.BOT_R, t, [q], "succ", head)
        # keep-style rules fall through to the context case below

    # f is context for this node: premises all carry it
    return _context(p, _inverted_sequent(s, side, f, which, eigen), pside, pf, (side, f, which, eigen))


def _context(p: Proof, t: Sequent, pside: str | None, pf: Formula | None, args: tuple):
    """The visit of a node that keeps the transformed formula as context:
    each premise q transformed by the step's sub-call on (q, *args), and
    p's rule, principal pf on pside, over them concluding t."""
    done = []
    for q in p.premises:
        done.append((yield (q, *args)))
    return _node(p.rule, t, done, pside, pf, p.witness, p.eigen)


def _reclose(s: Sequent, t: Sequent, redo) -> Proof:
    """Close t, the sequent an axiom node over s becomes under a transform,
    without strengthened axioms: by a standard axiom, by bottom-right when
    bottom is in the antecedent, or else by eta-expanding a compound formula
    s shares between its sides and handing that expansion to redo, which
    repeats the transform on it."""
    if is_axiom(t):
        return Proof(RuleId.AXIOM, t)
    if BOT in t.ante and t.succ:
        return bottom_closure(t)
    for g in s.ante:
        if g in s.succ and not isinstance(g, (Atom, Top, Bot)):
            return redo(drive(_eta, s.replace_succ(s.succ.index(g), (g,)), g))
    raise TransformError(f"axiom {s} does not close {t}")


# ---------------------------------------------------------------------------
# contraction elimination


#: the plain steps each of these starred rules expands into, above a
#: contraction on its principal; _starify maps each step back
_PLAIN_STEPS: dict[RuleId, tuple[RuleId, ...]] = {
    RuleId.AND_L_STAR: (RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT),
    RuleId.OR_R_STAR: (RuleId.OR_R_LEFT, RuleId.OR_R_RIGHT),
    RuleId.FORALL_L_STAR: (RuleId.FORALL_L,),
    RuleId.EXISTS_R_STAR: (RuleId.EXISTS_R,),
}
_STARRED_OF = {plain: star for star, steps in _PLAIN_STEPS.items() for plain in steps}
_STARRED_RULES = frozenset(_PLAIN_STEPS) | {RuleId.IMP_L_STAR, RuleId.IMP_L_STAR_INT}

#: plain rules that contraction elimination handles as context although they
#: consume their principal (and imp-l splits the succedent); the starred
#: rules it expects keep the principal
_PLAIN_DROPPING = frozenset(_STARRED_OF) | {RuleId.IMP_L}


def _contraction(p: Proof, side: str, f: Formula):
    """The entry step that drive runs to build, from a contraction-free proof
    p of a sequent holding two copies of f, a contraction-free proof with one
    copy: the proof when p is an axiom, else the visit that contracts p's
    premises, on f as context (see _context) or on the parts p's rule put in
    place of f (see _consumed)."""
    s = p.conclusion
    rest = multiset_minus(s.ante if side == "ante" else s.succ, (f,))
    if rest is None:
        where = "antecedent" if side == "ante" else "succedent"
        raise TransformError(f"{format_formula(f)} missing from the {where} of {s}")
    target = Sequent(rest, s.succ) if side == "ante" else Sequent(s.ante, rest)
    rule = p.rule
    if rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        raise TransformError("contraction elimination expects contraction-free subproofs")
    if rule is RuleId.AXIOM:
        return _reclose(s, target, lambda q: drive(_contraction, q, side, f))

    pf = _principal_formula(p) if p.principal is not None else None
    pside = p.principal[0] if p.principal is not None else None
    mine = pf == f and pside == side
    # the invertible rules, imp-l*-int and bot-r consume their principal
    if mine and (rule is INVERTIBLE[side].get(type(f)) or rule in (RuleId.IMP_L_STAR_INT, RuleId.BOT_R)):
        return _consumed(p, side, f, target)
    visit = _context(p, target, pside, pf, (side, f))
    # a plain rule drops a copy by consuming it, or imp-l by handing the
    # succedent copies to different premises
    if rule in _PLAIN_DROPPING and (mine or rule is RuleId.IMP_L and side == "succ"):
        return _dropping(visit, rule, f)
    return visit


def _dropping(visit, rule: RuleId, f: Formula):
    """visit, its failure blamed on the plain rule that drops a copy of f."""
    try:
        return (yield from visit)
    except TransformError as exc:
        raise TransformError(
            f"contraction elimination expects starred-calculus proofs: {rule.value} drops "
            f"a copy of {format_formula(f)} that it treats as context"
        ) from exc


def _consumed(p: Proof, side: str, f: Formula, target: Sequent):
    """The visit of a node whose rule consumes the contracted f.  Premise j
    holds the context copy of f beside the parts the rule put in place of
    the principal: that copy is inverted into premise j's parts of f's own
    invertible rule, and each part contracted.  The goal premise of
    imp-l*-int still holds the principal, so it is contracted on f; and
    bot-r's premise proves the target with an extra bottom on the right."""
    rule = p.rule
    if rule is RuleId.BOT_R:
        return (yield (p.premises[0], "succ", BOT))
    c = p.eigen if rule in (RuleId.EXISTS_L, RuleId.FORALL_R) else None
    wanted = premises(rule, p.conclusion, p.principal[1], f, None if c is None else Const(c))
    built = []
    for j, want in enumerate(wanted):
        q = p.premises[j]
        if rule is RuleId.IMP_L_STAR_INT and j == 0:
            built.append((yield (q, "ante", f)))
            continue
        if c is not None:
            q = _freshen_eigens(q, {c})
        q = _invert_once(q, side, f, which=j, eigen=c)
        for g in multiset_minus(want.ante, target.ante):
            q = yield (q, "ante", g)
        for g in multiset_minus(want.succ, target.succ):
            q = yield (q, "succ", g)
        built.append(q)
    return _node(rule, target, built, side, f, eigen=c)


def eliminate_contractions(p: Proof) -> Proof:
    """Rewrite a starred-calculus proof with contraction nodes into one
    without, preserving the end sequent.  Contractions are removed topmost
    first, so each removal works on a contraction-free subproof."""
    return fold_proof(p, _eliminated)


def _eliminated(p: Proof, premises: tuple[Proof, ...]) -> Proof:
    """p over its premises made contraction-free, its own contraction removed."""
    if p.rule in (RuleId.CONTR_L, RuleId.CONTR_R):
        side = "ante" if p.rule is RuleId.CONTR_L else "succ"
        return drive(_contraction, premises[0], side, _principal_formula(p))
    return _rebuilt(p, premises)


# ---------------------------------------------------------------------------
# starred-rule expansion


def expand_starred(p: Proof) -> Proof:
    """Replace every starred node by its plain decomposition with explicit
    contractions.  Succedent cardinalities are preserved, so single-succedent
    inputs expand to single-succedent outputs."""
    return fold_proof(p, _expanded)


def _expanded(p: Proof, expanded: tuple[Proof, ...]) -> Proof:
    """p over its expanded premises, itself expanded if starred."""
    s = p.conclusion
    rule = p.rule

    if rule in _PLAIN_STEPS:
        # a contraction on the principal, then each plain step on its first
        # remaining copy, each step's conclusion the premise of the one below
        f = _principal_formula(p)
        side = p.principal[0]
        contr = RuleId.CONTR_L if side == "ante" else RuleId.CONTR_R
        below, t, steps = contr, s, []
        for step in _PLAIN_STEPS[rule]:
            t = premises(below, t, (t.ante if side == "ante" else t.succ).index(f), f)[0]
            steps.append((step, t))
            below = step
        node = expanded[0]
        for step, t in reversed(steps):
            node = _node(step, t, [node], side, f, p.witness)
        return _node(contr, s, [node], side, f)

    if rule is RuleId.IMP_L_STAR_INT:
        f = _principal_formula(p)
        doubled = s.plus(ante=(f,))
        second = weaken(expanded[1], extra_ante=(f,))
        inner = _node(RuleId.IMP_L, doubled, [expanded[0], second], "ante", f)
        return _node(RuleId.CONTR_L, s, [inner], "ante", f)

    if rule is RuleId.IMP_L_STAR:
        f = _principal_formula(p)
        doubled_ante = s.ante + (f,)
        first = weaken(expanded[0], extra_ante=(f,))
        second = weaken(expanded[1], extra_ante=(f,))
        cur = _node(RuleId.IMP_L, Sequent(doubled_ante, s.succ + s.succ), [first, second], "ante", f)
        acc = list(s.succ + s.succ)
        for d in s.succ:
            acc.remove(d)
            cur = _node(RuleId.CONTR_R, Sequent(doubled_ante, tuple(acc)), [cur], "succ", d)
        return _node(RuleId.CONTR_L, s, [cur], "ante", f)
    return _rebuilt(p, expanded)


# ---------------------------------------------------------------------------
# classical to single-succedent extraction


def _starify(p: Proof) -> Proof:
    """Convert plain rule applications to their starred forms, weakening the
    subproofs so the kept principal is available in the premises.  Its one
    use, the starred round trip, runs only on proofs without imp-l, so an
    imp-l node is kept plain."""
    return fold_proof(p, _starred)


def _starred(p: Proof, starred: tuple[Proof, ...]) -> Proof:
    """p over its starified premises, itself in starred form if plain."""
    s = p.conclusion
    rule = p.rule

    star = _STARRED_OF.get(rule)
    if star is not None:
        # weaken by what the starred premise holds beyond the plain one
        f = _principal_formula(p)
        side = p.principal[0]
        want = premises(star, s, p.principal[1], f, p.witness)[0]
        got = p.premises[0].conclusion
        extra_ante = multiset_minus(want.ante, got.ante)
        extra_succ = multiset_minus(want.succ, got.succ)
        if extra_ante is None or extra_succ is None:
            raise TransformError(f"malformed {rule.value} node at {s}")
        q = weaken(starred[0], extra_ante, extra_succ)
        return _node(star, s, [q], side, f, p.witness)
    return _rebuilt(p, starred)


def _extract_some_goal(p: Proof):
    """The visit that drive runs to pick one succedent member per branch,
    turning a classical proof that avoids implication-right and
    disjunction-left into a single-succedent proof of one of its goals,
    preserving antecedents exactly: it yields (q,) for each premise q it
    extracts, in order, and stops at the first that settles p."""
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

    if rule is RuleId.CONTR_R:
        return (yield (p.premises[0],))
    if rule is RuleId.BOT_R:
        f = _principal_formula(p)
        q = yield (p.premises[0],)
        if q.conclusion.succ[0] in set(s.succ):
            return q
        return _node(rule, Sequent(s.ante, (f,)), [q], "succ", f)

    if rule in (RuleId.CONTR_L, RuleId.AND_L_LEFT, RuleId.AND_L_RIGHT, RuleId.FORALL_L, RuleId.EXISTS_L):
        f = _principal_formula(p)
        q = yield (p.premises[0],)
        return _node(rule, Sequent(s.ante, q.conclusion.succ), [q], "ante", f, p.witness, p.eigen)

    if rule in (RuleId.AND_R, RuleId.OR_R_LEFT, RuleId.OR_R_RIGHT, RuleId.EXISTS_R, RuleId.FORALL_R):
        # a premise whose goal is another member of the succedent proves it
        f = _principal_formula(p)
        others = set(multiset_minus(s.succ, (f,)))
        extracted = []
        for q in p.premises:
            q = yield (q,)
            if q.conclusion.succ[0] in others:
                return q
            extracted.append(q)
        return _node(rule, Sequent(s.ante, (f,)), extracted, "succ", f, p.witness, p.eigen)

    if rule is RuleId.IMP_L:
        f = _principal_formula(p)
        delta1 = multiset_minus(p.premises[0].conclusion.succ, (f.left,))
        if delta1 is None:
            raise TransformError(f"malformed implication-left node at {s}")
        q1 = yield (p.premises[0],)
        if q1.conclusion.succ[0] in set(delta1):
            return weaken(q1, extra_ante=(f,))
        q2 = yield (p.premises[1],)
        return _node(rule, Sequent(s.ante, q2.conclusion.succ), [q1, q2], "ante", f)

    raise TransformError(f"rule {rule.value} cannot appear in this extraction")


def extract_intuitionistic(p: Proof) -> Proof:
    """Extract a single-succedent proof from an eligible classical proof.

    When the proof avoids implication-right and disjunction-left, the result
    proves ⟨Γ ⊢ G⟩ for some member G of the original succedent.  When it
    avoids implication-left, disjunction-right and exists-right and ends in a
    single-succedent sequent, the result proves that same sequent.  Raises
    TransformError naming the offending rule families otherwise.

    Starred inputs are expanded to their plain decompositions first, so
    search output can be fed in directly.
    """
    if _STARRED_RULES & set(rule_usage(p)):
        p = expand_starred(p)
    fams = {rule_family(r) for r in rule_usage(p)}
    # the two paths are conditions 1 and 4 of the intuitionistic stage
    some_goal, round_trip = FORBIDDEN_FAMILIES[1], FORBIDDEN_FAMILIES[4]
    if not fams & some_goal:
        return drive(_extract_some_goal, p)
    if not fams & round_trip:
        if len(p.conclusion.succ) != 1:
            raise TransformError(
                "the starred round-trip extraction needs a single-succedent end sequent"
            )
        return expand_starred(eliminate_contractions(_starify(p)))
    blocking = sorted(fams & (some_goal | round_trip))
    raise TransformError(f"proof uses {', '.join(blocking)}; no extraction path applies")


# ---------------------------------------------------------------------------
# augmentation


def augment(s: Sequent) -> Sequent:
    """Add the goal's negation-as-implication to the antecedent."""
    if len(s.succ) != 1:
        raise ValueError(f"augmentation needs exactly one succedent formula, got {s}")
    return s.plus(ante=(Imp(s.succ[0], BOT),))
