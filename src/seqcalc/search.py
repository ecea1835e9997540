"""Proof search: classical, intuitionistic, goal-directed and restart provers.

Three engines share this module:

* The classical prover works on the contraction-free multiset calculus.
  Quantifier witnesses are metavariables resolved by unification (with an
  occurs check); eigenvariables for the fresh-constant rules are function
  terms over the metavariables alive at that point, so the occurs check
  doubles as the freshness proviso.  Iterative deepening raises the number
  of instantiations allowed per quantified formula per branch, one round of
  search per number.  A round is one loop for every root, quantifier-free or
  not, on explicit stacks, as in the goal stack with chronological choice
  points of tableau provers (Fitting 1996; Beckert & Posegga 1995): the open
  sequents, the proof steps in pre-order, and an entry per sequent with more
  than one move, so a search path may be as long as memory allows.  Every
  propositional and eigenvariable rule is invertible, so a quantifier-free
  sequent has one move and a round on a quantifier-free root decides it.
  A premise that recurs, under another binding or another order of
  instantiation, is searched again, as in leanTAP: the round memoizes no
  failure.  A round that fails without refusing any instantiation at its
  multiplicity ends the search: the next round would differ only where an
  instantiation met the multiplicity, so it would search the same tree up
  to the numbering of its metavariables and eigenvariables, and fail too
  (over the 6,000 c calls of the fo-reduction stream of seeds 7, 11 and 3
  this saves 6,008 nodes on 548 of them and changes no outcome or proof).
  Unification, the occurs check and resolution walk explicit stacks, and
  pass over what holds no metavariable by the flag every node carries
  (syntax._mv): two such parts unify exactly when they are equal.  A
  round that made no metavariable has a ground skeleton, which is its proof.
  Else the proof is grounded from the skeleton by identity where it can be:
  a member, atom argument or side without a metavariable is kept as the
  skeleton's own object, and a node whose two sides are kept keeps the
  skeleton's sequent, so a grounded proof shares them with the skeleton and
  sorts no such side again.  One policy, _closing_first_step, chooses the
  invertible step.  Any choice of principal keeps the verdict; the policy
  chooses closing first, the selection of branching rules by closure in
  tableaux (Fitting 1996, ch. 3): a one-premise rule when there is one, else
  the branching rule with the fewest premises that do not close at once,
  ranked by the one formula each premise adds, without building any.  A
  split taken before a rule whose premises close copies the open context
  into both branches: taking the first rule found, the pigeonhole sequent of
  4 holes exhausts the default node budget, where closing first proves it in
  898 nodes.

* The intuitionistic prover searches the contraction-free single-succedent
  calculus on ground sequents: invertible rules apply eagerly, the remaining
  choices (disjunction side, witnesses, implication-left) are tried under
  depth and instantiation budgets, with a loop check on canonicalized states.
  Quantifier-free inputs are decided.

* The goal-directed prover restricts the same ground search so a compound
  goal is always introduced by its right rule, and emits proofs over the
  plain rules: backchaining steps contract the clause explicitly so it stays
  available.  The restart variant adds a restart rule and a restart-aware
  disjunction-left rule aimed at a fixed goal formula.  These goal-directed
  searches report Proved or NotProvedWithinLimits, never Refuted.

The intuitionistic, goal-directed and restart searches share one ground
engine.  It runs in the caller's thread on `calculus.drive`, the explicit
stack of suspended rule applications that the proof transforms share, so a
search path may be as long as memory allows and a call changes no
interpreter-wide setting; concurrent calls are independent.  Its per-mode
table `_EAGER` names the antecedent connectives it splits eagerly, and so
the members its loop check must not collapse.  Its loop check and failure
cache key a state by a tuple of its members' stored sort keys.  In the key
of a member holding a constant the search made itself, each such
constant's key is a hole numbered by first occurrence, and the holes are
renamed across the state, once per search for each antecedent.  A
quantifier-free search makes no constant, so it keys every state by sort
keys alone.  Its relevance check reads a per-formula index of positive
heads.  Every engine takes its invertible rules from `calculus.INVERTIBLE`
and builds their premises with `calculus.premises`, as the checker does;
so does the restart disjunction step.  The starred search's imp-l*-int
step builds its two premises by hand, the second only once the first has a
proof: taking both from `premises` builds the second also when the first
fails, and made i and o searches of random goal sequents slower, o by
about 9%.  A visit starts with an entry step that settles closures,
loop-check hits, recorded failures and depth cuts; only a state that
branches gets a generator.

Quantifier-free i and o searches, which have no restart goal, let a
failure subsume others.  They keep, per goal key, the antecedent key sets
of the failures they make final, in place of the exact failure cache, and
a state whose antecedent key set is a subset of a kept one fails at once.
A final failure is one that no cycle escapes, so it does not assume that
an ancestor fails.  On quantifier-free input the search decides, so a
final failure of S |- G means that S |- G has no proof in the calculus
searched.  Weakening is admissible there, for the contraction-free
intuitionistic calculus and for uniform proofs alike (Miller, Nadathur,
Pfenning & Scedrov 1991), so for no antecedent S' <= S does S' |- G have a
proof either, and the skipped visit would have failed.  Proofs and the
depth-first order do not change; only the nodes spent do.  The key sets
are sets, not multisets, because contraction is admissible too.  Only the
maximal sets are kept: a subset of a kept set finds nothing that the set
does not, so a lookup tests one set per maximal failure.

Subsumption stays off in two cases.  Under a restart goal the search is
not monotone in its antecedent: a second copy of an antecedent
disjunction can lose a proof (tests/test_search.py pins a repro).  On
first-order input a failure only says that nothing was found within the
depth and the instantiation tallies it had.  No argument here carries
that to a smaller antecedent, so the exact cache keyed by the state, its
tallies and its depth stays.

Before any engine is built, `prove` and `prove_restart` valuate the root
classically.  Each distinct atom gets a fixed bit pattern over all 2**n
valuations of the n atoms, each formula is one int built by `&`, `|` and
complement in one post-order walk on an explicit stack, and the sequent
is valid iff AND(ante) & ~OR(succ) == 0.  A first-order root is valuated
through its Herbrand expansion: Herbrandized, and, when no function
symbol is left, each remaining (weak) quantifier replaced by the
conjunction or disjunction of its instances over the finite set of
constants, which by Herbrand's theorem is valid exactly when the root is
(the Bernays-Schoenfinkel class).  Uniform provability implies
intuitionistic and that classical provability, so a falsifying valuation
settles every relation at once: c and i return Refuted, o and restart
NotProvedWithinLimits, and no node is spent, so c and i refute such a
root even with no node budget.  A root past a bound (more than 12
distinct ground atoms, a function symbol after Herbrandization, or more
than 1,024 quantifier instances) is searched as before, and so is every
valid root, so no proof changes.  Only the root is valuated: pruning
every classically invalid state of the i and o searches made their
searches of valid sequents about a fifth slower.  The last verdict is
kept in one module slot, keyed by the members' sort keys and replaced as
a whole tuple, so c, i, o and restart asked in turn about one sequent
valuate it once; the slot holds no formula and cannot grow.

Both engines extend one search context, `_Search`: the root, the limits,
the nodes left, and the constants the search made, in `made`, each named
under a prefix that avoids the root's symbols.  Those symbols are collected
in one walk of the root, once per search, on the first made name, however
many prefixes it reserves (a proved c call reserves two: e for its
eigenvariables, c for its blank).  Every memo is keyed by values (sort
keys, numbers, ids), never by a live sequent.  The pure memos,
whose evicted entries are just recomputed, are kept by `syntax._stored`,
which empties a memo when it reaches `syntax._MEMO_CAP` entries, so their
memory stays bounded and no outcome changes: `_instances`, `_wit_memo`,
`_items`, `_heads`, `_antes` and the classical `_metas`.  What prunes or
numbers the ground search stays unbounded, as evicting it would change
node counts or keys: its failure cache `failed`, the subsumption sets
`_maximal`, `_numbers`, `_path` and `_pending`.

Outcomes are frozen, slotted dataclasses.  A `Proved` outcome carries one
of `calculus`'s shared class constants, `CLASSICAL_STAR` under c,
`INTUITIONISTIC_STAR` under i and `UNIFORM` under o; only a restart proof
builds its class, which holds the search's goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Generator, Iterable, Iterator, Union

from .calculus import (
    CLASSICAL_STAR,
    INTUITIONISTIC_STAR,
    INVERTIBLE,
    UNIFORM,
    Proof,
    ProofClass,
    RuleId,
    bottom_closure,
    drive,
    fold_proof,
    is_axiom,
    premises,
    restart_class,
)
from .syntax import (
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
    Formula,
    Imp,
    Meta,
    Or,
    Sequent,
    Term,
    Top,
    Var,
    _TERM_TYPES,
    _holed_keys,
    _stored,
    _walk,
    ground_subterms,
    instantiate,
    is_quantifier_free,
    map_terms,
    metas_in,
)

# the rules the provers build and compare, as module globals: reading an
# Enum member through its class costs about ten times a global read
_AND_L_LEFT = RuleId.AND_L_LEFT
_AND_L_RIGHT = RuleId.AND_L_RIGHT
_AXIOM = RuleId.AXIOM
_CONTR_L = RuleId.CONTR_L
_EXISTS_R = RuleId.EXISTS_R
_EXISTS_R_STAR = RuleId.EXISTS_R_STAR
_FORALL_L = RuleId.FORALL_L
_FORALL_L_STAR = RuleId.FORALL_L_STAR
_IMP_L = RuleId.IMP_L
_IMP_L_STAR_INT = RuleId.IMP_L_STAR_INT
_OR_L = RuleId.OR_L
_OR_L_RESTART = RuleId.OR_L_RESTART
_OR_R_LEFT = RuleId.OR_R_LEFT
_OR_R_RIGHT = RuleId.OR_R_RIGHT
_RESTART = RuleId.RESTART

_KEY = attrgetter("_key")

# ---------------------------------------------------------------------------
# substitutions and unification


class Subst:
    """Immutable metavariable substitution."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[int, Term] | None = None):
        self._map: dict[int, Term] = mapping or {}

    def bind(self, ident: int, t: Term) -> "Subst":
        m = dict(self._map)
        m[ident] = t
        return Subst(m)

    def walk(self, t: Term) -> Term:
        """Follow bindings at the head of t."""
        while isinstance(t, Meta):
            nxt = self._map.get(t.ident)
            if nxt is None:
                return t
            t = nxt
        return t

    def resolve_term(self, t: Term) -> Term:
        """t with every bound metavariable replaced by its resolved binding;
        a part that holds no metavariable is kept as it is.  Walks an
        explicit stack, so nesting depth costs no recursion."""
        t = self.walk(t)
        if type(t) is not App or not t._mv:
            return t
        walk = self.walk
        # post-order: an application is popped again, as None and itself,
        # once its resolved arguments are on done
        done: list[Term] = []
        stack: list = [t, None]
        stack += reversed(t.args)
        while stack:
            u = stack.pop()
            if u is None:
                app = stack.pop()
                n = len(app.args)
                done[-n:] = (App(app.name, done[-n:]),)
                continue
            u = walk(u)
            if type(u) is App and u._mv:
                stack.append(u)
                stack.append(None)
                stack += reversed(u.args)
            else:
                done.append(u)
        return done[0]

    def unbound(self, idents: Iterable[int]) -> set[int]:
        """The metavariables the given ones resolve into: metas_in of their
        resolved forms, found by following the bindings that hold
        metavariables, building no term."""
        out: set[int] = set()
        seen: set[int] = set()
        todo = list(idents)
        while todo:
            i = todo.pop()
            if i in seen:
                continue
            seen.add(i)
            t = self._map.get(i)
            if t is None:
                out.add(i)
            elif t._mv:
                todo += metas_in(t)
        return out


class _Grounding(Subst):
    """A substitution's grounding: each term walks as under the substitution,
    then a metavariable it leaves unbound as the blank constant and a term
    headed by an eigenvariable as that name, so resolve_term grounds a term
    in one pass.  A term that holds no metavariable grounds to itself: an
    eigenvariable term is applied to the metavariables alive where it was
    made, or is a constant when there were none."""

    __slots__ = ("_blank", "_eigens")

    def __init__(self, subst: Subst, blank: Const, eigens: set[str]):
        super().__init__(subst._map)
        self._blank = blank
        self._eigens = eigens

    def walk(self, t: Term) -> Term:
        t = Subst.walk(self, t)
        k = type(t)
        if k is Meta:
            return self._blank
        if k is App and t.name in self._eigens:
            return Const(t.name)
        return t


def _occurs_or_captures(ident: int, t: Term, subst: Subst) -> bool:
    """True if metavariable ident occurs in t, or t is not locally closed
    (every binding passed this check, so t's own range tells).  Walks an
    explicit stack over the parts that hold a metavariable, so nesting depth
    costs no recursion."""
    if t._lbr:
        return True
    stack = [t]
    while stack:
        u = subst.walk(stack.pop())
        k = type(u)
        if k is App:
            stack += [a for a in u.args if a._mv]
        elif k is Meta and u.ident == ident:
            return True
    return False


def unify(a: Term, b: Term, subst: Subst) -> Subst | None:
    """Most general extension of subst unifying a with b, or None; subst
    itself when they are equal under it.  Pairs of arguments are unified
    left to right, depth first, on an explicit stack, so nesting depth
    costs no recursion."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        # terms are interned: equal terms are one object, and two distinct
        # terms that hold no metavariable never unify
        if a is b:
            continue
        if not (a._mv or b._mv):
            return None
        ka, kb = type(a), type(b)
        if kb is Meta and ka is not Meta:
            a, b, ka = b, a, kb
        if ka is Meta:
            if _occurs_or_captures(a.ident, b, subst):
                return None
            subst = subst.bind(a.ident, b)
        elif ka is App and kb is App and a.name == b.name and len(a.args) == len(b.args):
            stack += zip(reversed(a.args), reversed(b.args))
        else:
            return None
    return subst


def unify_formulas(f: Formula, g: Formula, subst: Subst) -> Subst | None:
    """Structural unification of formulas, or None; subst itself when they
    are equal under it.  Binder display names are irrelevant.  A pair of
    parts that holds no metavariable unifies exactly when the parts are
    equal, so == settles it.  Parts are unified left to right on an
    explicit stack, so nesting depth costs no recursion."""
    stack = [(f, g)]
    while stack:
        f, g = stack.pop()
        if not (f._mv or g._mv):
            if f == g:
                continue
            return None
        k = type(f)
        if k is not type(g) or k is Atom and (f.pred != g.pred or len(f.args) != len(g.args)):
            return None
        if k is Atom:
            for x, y in zip(f.args, g.args):
                subst = unify(x, y, subst)
                if subst is None:
                    return None
        elif k is Forall or k is Exists:
            stack.append((f.body, g.body))
        elif k is not Top and k is not Bot:
            stack += ((f.right, g.right), (f.left, g.left))
    return subst


# ---------------------------------------------------------------------------
# herbrandization


def herbrandize(s: Sequent) -> Sequent:
    """Replace strong quantifiers by fresh function terms over the weak ones.

    Strong means universal on the right or existential on the left.  Each
    strong quantifier is dropped and its variable replaced by a fresh
    function symbol applied to the variables of the weak quantifiers it sits
    under (a fresh constant when there are none).  Classical provability is
    preserved, and the result has no eigenvariable rules left to apply.
    """

    def fresh() -> Iterator[str]:
        # a generator's body runs at its first next(), so the sequent's
        # symbols are collected at the first strong quantifier, if any
        taken = _symbols_everywhere(s)
        yield from (name for name in map("h{}".format, count()) if name not in taken)

    fns = fresh()
    # visits (formula, polarity, number of weak binders above, which keep
    # their nameless bodies) and, below the visits of a binary connective's
    # or weak quantifier's parts, its rebuild (formula, None, None): left
    # parts first, as a recursion takes them
    done: list[Formula] = []
    stack = [(f, True, 0) for f in reversed(s.succ)] + [(f, False, 0) for f in reversed(s.ante)]
    while stack:
        f, positive, weak = stack.pop()
        k = type(f)
        if positive is None:
            if k is Forall or k is Exists:
                done[-1] = k(done[-1], f.hint)
            else:
                right = done.pop()
                done[-1] = k(done[-1], right)
        elif k is And or k is Or or k is Imp:
            stack += ((f, None, None), (f.right, positive, weak), (f.left, positive != (k is Imp), weak))
        elif k is Forall or k is Exists:
            if positive == (k is Forall):
                stack.append((_skolem_opened(f, next(fns), weak), positive, weak))
            else:
                stack += ((f, None, None), (f.body, positive, weak + 1))
        else:
            done.append(f)
    return Sequent(done[: len(s.ante)], done[len(s.ante) :])


def _skolem_opened(q: Formula, name: str, weak: int) -> Formula:
    """The body of the strong quantifier q, which sits under weak binders,
    with q's variable replaced by the Skolem term name(...) over them,
    outermost first: at depth d in the body that is name(Bound(d+weak-1), ...,
    Bound(d)), or Const(name) when weak is 0.  Every loose index above q's
    own moves down by one, as q's binder goes."""

    def opened(a: Term, depth: int) -> Term | None:
        if a._lbr <= depth:
            return a
        if type(a) is not Bound:
            return None
        if a.index != depth:
            return Bound(a.index - 1)
        return App(name, tuple(map(Bound, range(depth + weak - 1, depth - 1, -1)))) if weak else Const(name)

    return map_terms(q.body, opened)


# ---------------------------------------------------------------------------
# limits and outcomes


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for proof search.

    depth bounds rule applications per branch in the ground searches;
    quantifier-free inputs are decided (by one classical round, or a
    loop-checked ground search) and ignore it.  quantifier_budget caps how
    often any one quantified formula may be instantiated per branch (the
    classical prover deepens iteratively on this, one round per value, and
    stops after a round that refused no instantiation; a quantifier-free
    root gets one round whatever the budget).  node_budget bounds total
    expansions per call.  strengthened_axioms lets closures match any
    shared formula rather than only shared atoms and bottom.
    """

    depth: int = 40
    quantifier_budget: int = 3
    node_budget: int = 1_000_000
    strengthened_axioms: bool = False


@dataclass(frozen=True, slots=True)
class Proved:
    proof: Proof
    proof_class: ProofClass


@dataclass(frozen=True, slots=True)
class Refuted:
    pass


@dataclass(frozen=True, slots=True)
class NotProvedWithinLimits:
    pass


SearchOutcome = Union[Proved, Refuted, NotProvedWithinLimits]


class _OutOfNodes(Exception):
    pass


# lowlink value meaning "no cycle detected in this subtree"
_NO_CYCLE = 10**9

# a ground-search visit: yields premises as (sequent, depth, counts), is sent
# each premise's proof or None, and returns its own
_Visit = Generator[tuple, Proof | None, Proof | None]


class _Search:
    """What a search of either engine keeps: its root and limits, the nodes
    left, and the names of the constants it made (see _made_name)."""

    def __init__(self, root: Sequent, limits: SearchLimits):
        self.root = root
        self.limits = limits
        self.left = limits.node_budget
        self.made: set[str] = set()
        self._prefixes: dict[str, str] = {}
        # the root's symbols, collected on the first made name
        self._taken: set[str] | None = None

    def tick(self) -> None:
        if self.left <= 0:
            raise _OutOfNodes
        self.left -= 1

    def _made_name(self, base: str, number: int) -> str:
        """The made constant number under base's prefix, which avoids every
        symbol of the root and is reserved on first need; kept in made.  The
        root's symbols are collected once per search, whatever the bases."""
        prefix = self._prefixes.get(base)
        if prefix is None:
            if self._taken is None:
                self._taken = _symbols_everywhere(self.root)
            prefix = self._prefixes[base] = _reserved_prefix(base, self._taken)
        name = f"{prefix}{number}"
        self.made.add(name)
        return name


def _reserved_prefix(base: str, taken: set[str]) -> str:
    """A prefix such that no name in taken ends in prefix+digits, so the
    ground engine's hole finder matches no root name (see _item).  A base
    holds no digit, so only its last occurrence can end where digits start."""
    prefix = base
    while any(t[t.rfind(prefix) + len(prefix) :].isdigit() for t in taken if prefix in t):
        prefix += base
    return prefix


#: the kinds of node that carry a symbol: a name, or an atom's predicate
_NAMED = frozenset((Var, Const, App, Meta, Atom))


def _symbols_everywhere(s: Sequent) -> set[str]:
    """free_symbols(s) | predicate_names(s), in one walk."""
    return {x.pred if type(x) is Atom else x.name for x in _walk(s, _NAMED)}


def is_quantifier_free_sequent(s: Sequent) -> bool:
    return all(map(is_quantifier_free, s.ante)) and all(map(is_quantifier_free, s.succ))


def _has_bot(ante: tuple[Formula, ...]) -> bool:
    """BOT in ante, by identity: top and bottom are interned, and in a
    sorted side only top sorts before bottom."""
    for f in ante:
        if f is not TOP:
            return f is BOT
    return False


#: the two-premise invertible rules, each with whether its first and its
#: second premise add their one new formula (the principal's left and right
#: part) on the left
_BRANCHING = {RuleId.OR_L: (True, True), RuleId.IMP_L_STAR: (False, True), RuleId.AND_R: (False, False)}


def _closing_first_step(s: Sequent, strengthened: bool) -> tuple[RuleId, str, int, Formula] | None:
    """The classical prover's invertible step for s, a sequent that does not
    close, with or without metavariables, as (rule, side, index, principal):
    the first one-premise invertible rule, antecedent first; else the
    two-premise one with the fewest premises that do not close at once, the
    first such on ties; None if no member has an invertible rule.

    The candidates are ranked without building their premises.  What a
    premise keeps of s does not close, so it closes at once exactly when
    the one formula it adds does: top on the right; bottom on the left over
    a succedent that is not empty; an atom (under strengthened axioms, any
    formula) already on the other side, found by sort key as is_axiom finds
    it; or anything on the right over a bottom already on the left (imp-l*'s
    first premise, whose conclusion had an empty succedent).  Under
    metavariables, equal sort keys close with no new binding, and a pair
    that would close only under a new one is ranked as not closing: the
    rank only orders invertible rules, so it cannot change a verdict."""
    branching = []
    for side, members in (("ante", s.ante), ("succ", s.succ)):
        rules = INVERTIBLE[side]
        for i, f in enumerate(members):
            rule = rules.get(type(f))
            if rule is not None:
                if rule not in _BRANCHING:
                    return rule, side, i, f
                branching.append((rule, side, i, f))
    if len(branching) < 2:
        return branching[0] if branching else None
    has_succ = bool(s.succ)
    bot_left = _has_bot(s.ante)
    ante_keys = {f._key for f in s.ante}
    succ_keys = {f._key for f in s.succ}

    def closes(g: Formula, left: bool) -> bool:
        if left:
            return g is BOT and has_succ or (strengthened or type(g) is Atom) and g._key in succ_keys
        return g is TOP or bot_left or (strengthened or type(g) is Atom) and g._key in ante_keys

    best, most = None, 3
    for step in branching:
        f = step[3]
        first, second = _BRANCHING[step[0]]
        n = (not closes(f.left, first)) + (not closes(f.right, second))
        if n < most:
            if not n:
                return step
            best, most = step, n
    return best


# ---------------------------------------------------------------------------
# classical prover


def _members_key(s: Sequent) -> tuple:
    """The sort keys of s's members, side by side."""
    return tuple(map(_KEY, s.ante)), tuple(map(_KEY, s.succ))


#: the classical prover's quantifier instantiations: (side, connective, rule)
_INSTANTIATIONS = (("ante", Forall, _FORALL_L_STAR), ("succ", Exists, _EXISTS_R_STAR))


class _ClassicalProver(_Search):
    """Its made constants are the eigenvariables e<n>, numbered in order,
    and, once a round that made a metavariable is over, a proof's blank c0
    (see _ground).  Across its rounds it keeps the next metavariable's
    number, the refusals and each member's metavariables (_metas), and no
    failure: every node it spends is a sequent it expands."""

    def __init__(self, root: Sequent, limits: SearchLimits):
        super().__init__(root, limits)
        self.next_meta = 0
        # the instantiations refused at their round's multiplicity, over
        # every round so far: run reads how much a round adds
        self.refused = 0
        # each member's own metavariables, by the member's sort key
        self._metas: dict[str, frozenset[int]] = {}

    def fresh_eigen(self) -> str:
        return self._made_name("e", len(self.made))

    def _round(self, root: Sequent, mult: int) -> Proof | None:
        """A proof of root in which no branch instantiates a quantified
        formula more than mult times, or None.

        A sequent closes by is_axiom, else by bottom, else by a pair of
        members equal under the substitution; else it takes its moves in
        turn (_moves).  todo is a cons list of open sequents, (sequent,
        counts, rest), first premise on top, so saving it is free.  steps
        lists in pre-order each closing proof and each step as (rule,
        sequent, principal, premises, witness, eigenvariable).  choices
        holds an entry (moves, len(steps), todo below) per sequent with more
        than one move; a failure backtracks to the last entry with a move
        left, and the round fails when none has one."""
        strengthened = self.limits.strengthened_axioms
        tick = self.tick
        first_meta = self.next_meta
        subst = Subst()
        steps: list = []
        push = steps.append
        choices: list = []
        todo = (root, {}, None)
        while todo is not None:
            s, counts, todo = todo
            tick()
            if is_axiom(s, strengthened):
                push(Proof(_AXIOM, s))
                continue
            if s.succ and _has_bot(s.ante):
                push(bottom_closure(s))
                continue
            # only a round that made a metavariable has sequents that
            # close under a binding
            bindings = self._bindings(s, subst) if self.next_meta != first_meta else ()
            if bindings is None:
                push(Proof(_AXIOM, s))
                continue
            step = _closing_first_step(s, strengthened)
            if step is not None and not bindings:
                move = self._step(s, subst, counts, step)
            else:
                moves = self._moves(s, subst, counts, mult, bindings, step)
                move = next(moves, None)
                if move is not None:
                    choices.append((moves, len(steps), todo))
            while move is None:
                if not choices:
                    return None
                moves, n, todo = choices[-1]
                move = next(moves, None)
                if move is None:
                    choices.pop()
                else:
                    del steps[n:]
            subst, record, prems, counts = move
            push(record)
            if prems:
                todo = (prems[-1], counts, todo)
                if len(prems) == 2:
                    todo = (prems[0], counts, todo)
        # a step's premises were recorded after it, the first one's subtree
        # first, so walking back leaves its first premise's proof on top
        done: list[Proof] = []
        for x in reversed(steps):
            if type(x) is tuple:
                rule, s, principal, n, witness, eigen = x
                done[-n:] = (Proof(rule, s, tuple(done[: -n - 1 : -1]), principal, witness, eigen),)
            else:
                done.append(x)
        return done[0] if self.next_meta == first_meta else self._ground(done[0], subst)

    def _bindings(self, s: Sequent, subst: Subst) -> list[Subst] | None:
        """The extensions of subst under which a pair of s's members closes
        s, in order; None when a pair is equal under subst."""
        strengthened = self.limits.strengthened_axioms
        out = []
        for a in s.ante:
            if strengthened or type(a) is Atom:
                for b in s.succ:
                    nxt = unify_formulas(a, b, subst) if type(b) is type(a) else None
                    if nxt is subst:
                        return None
                    if nxt is not None:
                        out.append(nxt)
        return out

    def _step(self, s: Sequent, subst: Subst, counts: dict[Formula, int], step: tuple) -> tuple:
        """The move of the invertible step (rule, side, index, principal)
        on s."""
        rule, side, i, f = step
        term = eigen = None
        if type(f) is Exists or type(f) is Forall:
            eigen = self.fresh_eigen()
            live = self._live_metas(s, subst)
            term = App(eigen, tuple(map(Meta, live))) if live else Const(eigen)
        prems = premises(rule, s, i, f, term)
        return subst, (rule, s, (side, i), len(prems), None, eigen), prems, counts

    def _moves(self, s, subst, counts, mult, bindings, step) -> Iterator[tuple]:
        """s's moves, made as they are tried, each as (substitution, steps
        record, premises, counts): an axiom under each of bindings, then
        the step, or else each instantiation, refused when its formula's
        tally is at mult."""
        for nxt in bindings:
            yield nxt, Proof(_AXIOM, s), (), counts
        if step is not None:
            yield self._step(s, subst, counts, step)
            return
        for side, k, rule in _INSTANTIATIONS:
            for i, f in enumerate(s.ante if side == "ante" else s.succ):
                if type(f) is k:
                    if counts.get(f, 0) >= mult:
                        self.refused += 1
                        continue
                    m = Meta(self.next_meta)
                    self.next_meta += 1
                    c2 = dict(counts)
                    c2[f] = c2.get(f, 0) + 1
                    yield subst, (rule, s, (side, i), 1, m, None), premises(rule, s, i, f, m), c2

    def _own_metas(self, s: Sequent) -> set[int]:
        """The metavariables s's members hold, each member's memoized by its
        sort key; a member that holds none is passed over."""
        memo = self._metas
        own: set[int] = set()
        for f in s.ante + s.succ:
            if f._mv:
                ms = memo.get(f._key)
                if ms is None:
                    ms = _stored(memo, f._key, metas_in(f))
                own |= ms
        return own

    def _live_metas(self, s: Sequent, subst: Subst) -> list[int]:
        """The metavariables of s resolved under subst, in order: each
        member's own followed through subst's bindings, so no member is
        rebuilt."""
        return sorted(subst.unbound(self._own_metas(s)))

    def _ground(self, skel: Proof, subst: Subst) -> Proof:
        """The proof skel stands for under subst.  Every metavariable subst
        leaves unbound becomes one blank constant, made constant 0 under c:
        that name avoids the root's symbols, the eigenvariables (made under
        e) and the metavariables (which start with X).  Every eigenvariable
        term becomes its name."""
        grounding = _Grounding(subst, Const(self._made_name("c", 0)), self.made)
        gterm = grounding.resolve_term
        # the skeleton's sequents share most of their members and many of
        # their sides; the skeleton keeps every member and side alive during
        # the call, so each is grounded once, by its id, and each side is
        # sorted once into a tuple the nodes that list it share.  What holds
        # no metavariable grounds to itself (an eigenvariable term has one
        # as argument, or is a constant already): such a member, atom
        # argument or side is kept as it is, and a node whose sides are
        # both kept keeps its sequent
        grounded: dict[int, Formula] = {}
        sides: dict[int, tuple[Formula, ...]] = {}

        def garg(a: Term, _: int) -> Term:
            return gterm(a) if a._mv else a

        def gformula(f: Formula) -> Formula:
            if not f._mv:
                return f
            g = grounded.get(id(f))
            if g is None:
                g = grounded[id(f)] = map_terms(f, garg)
            return g

        def gside(side: tuple[Formula, ...]) -> tuple[Formula, ...]:
            g = sides.get(id(side))
            if g is None:
                g = side
                if True in [f._mv for f in side]:
                    g = tuple(sorted(map(gformula, side), key=_KEY))
                sides[id(side)] = g
            return g

        def leave(sk: Proof, grounded_premises: tuple[Proof, ...]) -> Proof:
            s = sk.conclusion
            ante, succ = gside(s.ante), gside(s.succ)
            seq = s if ante is s.ante and succ is s.succ else Sequent._presorted(ante, succ)
            principal = sk.principal
            if principal is not None:
                side, i = principal
                pf = gformula((s.ante if side == "ante" else s.succ)[i])
                principal = (side, (seq.ante if side == "ante" else seq.succ).index(pf))
            witness = None if sk.witness is None else gterm(sk.witness)
            return Proof(sk.rule, seq, grounded_premises, principal, witness, sk.eigen)

        return fold_proof(skel, leave)

    def run(self) -> SearchOutcome:
        # a quantifier-free root gets one round, which decides it
        qf = is_quantifier_free_sequent(self.root)
        try:
            for mult in range(1, (1 if qf else self.limits.quantifier_budget) + 1):
                refused = self.refused
                proof = self._round(self.root, mult)
                if proof is not None:
                    return Proved(proof, CLASSICAL_STAR)
                if self.refused == refused:
                    # a higher multiplicity would search the same tree
                    break
        except _OutOfNodes:
            return NotProvedWithinLimits()
        return Refuted() if qf else NotProvedWithinLimits()


# ---------------------------------------------------------------------------
# intuitionistic / goal-directed / restart prover


#: the connectives of the antecedent members each ground-search mode splits
#: eagerly, by (goal-directed, has a restart goal): with a restart goal the
#: disjunction split is a genuine choice, and goal-directed search keeps
#: conjunctions for the backchain
_EAGER = {
    (False, False): (And, Or, Exists),
    (True, False): (Or, Exists),
    (True, True): (Exists,),
}

#: the right rules the ground searches apply without a choice (or-r* needs two succedent slots)
_RIGHT_INVERTIBLE = {k: rule for k, rule in INVERTIBLE["succ"].items() if k is not Or}


class _Counts(dict):
    """A ground search's instantiation tallies: how often each quantified
    formula, by its item text, was instantiated on the path, with the same
    as sorted items in tallies, built once where the counts are made (see
    _GroundProver._raised).  Never changed once made."""

    __slots__ = ("tallies",)


#: the counts at a search's root
_NO_COUNTS = _Counts()
_NO_COUNTS.tallies = ()


def _collapsed(keys: tuple[str, ...], ante: tuple[Formula, ...], eager: tuple[type, ...]) -> tuple:
    """The sort keys of ante, which hold duplicates, with each run of equal
    keys collapsed to one except those of members whose connective is in
    eager, the connectives the mode decomposes eagerly.

    The loop check collapses duplicates (contraction is admissible, and
    set-states are what make quantifier-free search terminate); the
    failure cache must not, since multiplicity affects what is provable
    within fixed resources.  Eager members keep their multiplicity even in
    the loop key: decomposing one of two copies leaves a state the
    collapsed key cannot tell from its parent, which would be pruned as a
    cycle.  Those steps consume their principal, so the kept copies cannot
    pile up along a path."""
    kept, prev = [], None
    for k, f in zip(keys, ante):
        if k != prev or type(f) in eager:
            kept.append(k)
        prev = k
    return tuple(kept)


class _GroundProver(_Search):
    """Single-succedent search.  uniform=False searches the contraction-free
    starred calculus; uniform=True restricts to goal-directed order and emits
    plain rules; a restart goal additionally enables the restart rules."""

    def __init__(self, root: Sequent, limits: SearchLimits, uniform: bool, restart_goal: Formula | None = None):
        super().__init__(root, limits)
        self.uniform = uniform
        self.rgoal = restart_goal
        self.counter = 0
        # definitive failures per canonical state, each recorded with the
        # depth and instantiation tallies it failed under; empty where
        # failures subsume (see _maximal)
        self.failed: dict = {}
        # formula memos keyed by the formula's sort key, which is
        # alpha-invariant and hashes in C: the head index, and the
        # loop-check item (text, holes, eager) of a member or goal
        self._heads: dict[str, dict | bool] = {}
        self._items: dict[str, tuple[str, tuple[str, ...], bool]] = {}
        # _item's hole finder, made once a made name has reserved its prefix
        self._holed = None
        # once the search has made a constant: each antecedent's summary
        # (kept, members, hole order) by the tuple of its members' sort
        # keys, and the per-search numbers of the holed member tuples
        self._antes: dict[tuple[str, ...], tuple] = {}
        self._numbers: dict[tuple, int] = {}
        # the witness candidates of a state, by its members' sort keys
        self._wit_memo: dict[tuple, list] = {}
        # instantiate(f, t) by (id(f), id(t)); an entry holds f and t, so
        # neither id can pass to another object while the entry lives.  By
        # identity, not sort key: an instance keeps f's binder hints
        self._instances: dict[tuple[int, int], tuple[Formula, Term, Formula]] = {}
        # loop check: canonical keys of the states on the current path, each
        # with its position; `_low` tracks the shallowest position any cycle
        # in the subtree under exploration closed back to.  A failure inside
        # a cycle is provisional (it assumed the ancestor it looped to would
        # fail), parked in `_pending`, and committed to `failed` only once
        # the node the cycle closed on completes without a proof
        self._path: dict[tuple, int] = {}
        self._low = _NO_CYCLE
        self._pending: list[tuple] = []
        self.prunes = 0
        self._eager = _EAGER[uniform, restart_goal is not None]
        # strengthened closures at a compound goal, which goal-directed
        # proofs do not make
        self._closes_compound = limits.strengthened_axioms and not uniform
        # a quantifier-free search has no depth bound and no tallies
        self.quantifier_free = is_quantifier_free_sequent(root)
        # where failures subsume (a quantifier-free search with no restart
        # goal), the final failures in place of failed: per goal key, the
        # maximal antecedent key sets that failed; else None
        self._maximal: dict[str, list[frozenset[str]]] | None = (
            {} if self.quantifier_free and restart_goal is None else None
        )

    def _fresh(self) -> str:
        """A new eigenvariable name.  The made constants are c<n>: the
        eigenvariables, numbered from 1, and the blank witness c0, made on
        first need, which a quantifier-free search never has."""
        self.counter += 1
        return self._made_name("c", self.counter)

    # -- loop-check keys ------------------------------------------------------

    def _item(self, f: Formula) -> tuple[str, tuple[str, ...], bool]:
        """f's loop-check item (text, holes, eager): f's sort key with a
        marker numbered by first occurrence for each made constant's key,
        and those constants in that order (see syntax._holed_keys); eager
        tells whether this mode splits f eagerly.  A member holding no made
        constant is its own key.  The text also keys f's instantiation
        tallies, where f is quantified; only a text with holes holds a
        marker, so the two kinds never meet.  Memoized by f's sort key: a
        made constant enters a state only after it is made."""
        key = f._key
        got = self._items.get(key)
        if got is None:
            text, holes = key, ()
            if self.made:
                if self._holed is None:
                    self._holed = _holed_keys(self._prefixes["c"])
                text, holes = self._holed(key)
            got = _stored(self._items, key, (text, holes, type(f) in self._eager))
        return got

    def _canon(self, s: Sequent, counts: _Counts) -> tuple[tuple, tuple]:
        """The state's loop-check key (kept, goal) and failure-cache key
        (members, goal, tallies), where tallies are the instantiation counts
        as the sorted items counts carries (see _raised) and kept is members
        with duplicates collapsed (see _collapsed).

        A member or goal that holds no made constant is its sort key.  While
        the search has made no constant, members is the antecedent's sort
        keys in the sequent's own order, which is sorted by them.  Otherwise
        the antecedent's summary is looked up by that same tuple of sort
        keys, so an antecedent is summarized once per search (see
        _summary).  A summary with holes stands for its members by
        per-search numbers, which no tuple equals; one without holes keeps
        the sort keys, so a state keys alike before and after the search's
        first made constant.  A goal with holes is (text, renamed holes...),
        its holes continuing the antecedent's renaming.  A text is its key
        with holes, so two members have equal texts exactly when one is the
        other with its made constants renamed.  So isomorphic states tend to
        compare equal, and equal states always do.  Flattening the holed
        members and numbering them are injective within a search."""
        goal = s.succ[0]
        if self.made:
            sig = tuple(map(_KEY, s.ante))
            kept, members, order = self._antes.get(sig) or self._summary(s.ante, sig)
            text, holes, _ = self._items.get(goal._key) or self._item(goal)
            if holes:
                n = len(order)
                goal_key = [text]
                for c in holes:
                    if c in order:
                        goal_key.append(order.index(c))
                    else:
                        goal_key.append(n)
                        n += 1
                goal_key = tuple(goal_key)
            else:
                goal_key = text
        else:
            members = tuple(map(_KEY, s.ante))
            kept = members
            if len(set(members)) < len(members):
                kept = _collapsed(members, s.ante, self._eager)
            goal_key = goal._key
        return (kept, goal_key), (members, goal_key, counts.tallies)

    def _summary(self, ante: tuple[Formula, ...], sig: tuple[str, ...]) -> tuple:
        """The antecedent's (kept, members, order), stored under sig, its
        members' sort keys.  Each member is its item: its key, with holes
        for its made constants (see _item).  When no member has holes,
        members is sig, already in sorted order, and order is empty.
        Otherwise the items are sorted and the made constants in their holes
        are renamed by first occurrence to their positions in order.
        members is then the flat tuple of each member's text followed by its
        renamed holes: a text with holes has at least one, a plain key none,
        so the tuple spells the members out unambiguously.
        kept drops the duplicates from it that _collapsed drops from sort
        keys, and both are replaced by their numbers."""
        memo = self._items
        items = [memo.get(k) or self._item(f) for f, k in zip(ante, sig)]
        if not any(item[1] for item in items):
            kept = sig
            if len(set(sig)) < len(sig):
                kept = _collapsed(sig, ante, self._eager)
            return _stored(self._antes, sig, (kept, sig, ()))
        items.sort()
        mapping: dict[str, int] = {}
        members: list = []
        kept: list = []
        prev = None
        for item in items:
            text, holes, eager = item
            part = [text]
            for c in holes:
                n = mapping.get(c)
                if n is None:
                    n = mapping[c] = len(mapping)
                part.append(n)
            members += part
            # equal items rename alike, and sorting put them side by side
            if item != prev or eager:
                kept += part
            prev = item
        numbers = self._numbers
        summary = (
            numbers.setdefault(tuple(kept), len(numbers)),
            numbers.setdefault(tuple(members), len(numbers)),
            tuple(mapping),
        )
        return _stored(self._antes, sig, summary)

    def _raised(self, counts: _Counts, key: str) -> _Counts:
        """counts with key's tally one higher."""
        c2 = _Counts(counts)
        c2[key] = c2.get(key, 0) + 1
        c2.tallies = tuple(sorted(c2.items()))
        return c2

    # -- witness candidates -----------------------------------------------------

    def _instance(self, f: Formula, t: Term) -> Formula:
        """instantiate(f, t), memoized for this search by identity."""
        got = self._instances.get((id(f), id(t)))
        if got is None:
            got = _stored(self._instances, (id(f), id(t)), (f, t, instantiate(f, t)))
        return got[2]

    def _forall_premises(self, s: Sequent, f: Forall, counts: _Counts) -> Iterator[tuple[Term, Sequent, _Counts]]:
        """forall-l on f, a member of s, as (witness, premise, raised
        counts) per instance s lacks; none once f is at the budget."""
        key = self._item(f)[0]
        if counts.get(key, 0) >= self.limits.quantifier_budget:
            return
        c2 = self._raised(counts, key)
        ante_set = set(s.ante)
        for t in self._witnesses(s):
            inst = self._instance(f, t)
            if inst not in ante_set:
                yield t, s.plus(ante=(inst,)), c2

    def _witnesses(self, s: Sequent) -> list[Term]:
        key = (tuple(map(_KEY, s.ante)), s.succ[0]._key)
        got = self._wit_memo.get(key)
        if got is None:
            terms = set(ground_subterms(s))
            terms.add(Const(self._made_name("c", 0)))
            got = _stored(self._wit_memo, key, sorted(terms, key=lambda t: (t._size, t._key)))
        return got

    # -- relevance --------------------------------------------------------------

    def _head_index(self, f: Formula) -> dict | bool:
        """The atoms in positive position within f by (predicate, arity),
        each as (exact argument tuples, wildcarded argument tuples): an
        argument slot a left-rule instantiation could fill is wildcarded to
        None.  True when bottom is in positive position: it lets any goal
        close."""
        heads: dict[tuple[str, int], tuple[list, list]] = {}
        stack = [f]
        while stack:
            g = stack.pop()
            k = type(g)
            if k is Atom:
                args = g.args
                exact, wild = heads.setdefault((g.pred, len(args)), ([], []))
                if g._lbr:
                    wild.append(tuple(None if a._lbr else a for a in args))
                else:
                    exact.append(args)
            elif k is Bot:
                return _stored(self._heads, f._key, True)
            elif k is And or k is Or:
                stack.append(g.left)
                stack.append(g.right)
            elif k is Imp:
                stack.append(g.right)
            elif k is Forall or k is Exists:
                stack.append(g.body)
        index = {head: (frozenset(exact), tuple(wild)) for head, (exact, wild) in heads.items()}
        return _stored(self._heads, f._key, index)

    def _attainable(self, s: Sequent, goal: Formula) -> bool:
        """Whether left rules could ever close this atomic or bottom goal:
        every formula the left rules add to the antecedent instantiates a
        positive-position subformula of one already there, so a goal no
        antecedent head matches is hopeless.  One index lookup per member."""
        if type(goal) is Atom:
            args = goal.args
            head = (goal.pred, len(args))
        else:
            args = head = None
        memo = self._heads
        for f in s.ante:
            index = memo.get(f._key)
            if index is None:
                index = self._head_index(f)
            if index is True:
                return True
            entry = index.get(head)
            if entry is not None:
                exact, wild = entry
                if args in exact:
                    return True
                for ha in wild:
                    if all(a is None or a == b for a, b in zip(ha, args)):
                        return True
        return False

    # -- search -----------------------------------------------------------------

    def _enter(self, s: Sequent, depth: int, counts: _Counts) -> Proof | None | _Visit:
        """The entry step of a visit: the proof or None of a state that a
        closure, the loop check, a recorded failure or the depth settles;
        else the generator that searches it (see _branch)."""
        self.tick()
        goal = s.succ[0]
        k = type(goal)

        # closures; goal-directed proofs may only close at an exempt goal.
        # An atom or bottom equal to the goal is the goal's interned object:
        # neither holds a binder hint
        if k is Top or (k is Atom or k is Bot) and id(goal) in map(id, s.ante):
            return Proof(_AXIOM, s)
        if self._closes_compound and goal in s.ante:
            return Proof(_AXIOM, s)
        if k is not Bot and (k is Atom or not self.uniform) and _has_bot(s.ante):
            return bottom_closure(s)

        loop_key, cache_key = self._canon(s, counts)
        seen_at = self._path.get(loop_key)
        if seen_at is not None:
            # cycle; note how far up it closes so the levels in between know
            # their failures are not ancestor-independent
            if seen_at < self._low:
                self._low = seen_at
            self.prunes += 1
            return None
        maximal = self._maximal
        if maximal is None:
            # a recorded failure of the same state with the same tallies
            # subsumes this visit when it had at least as much depth
            failed_depth = self.failed.get(cache_key)
            if failed_depth is not None and depth <= failed_depth:
                return None
        else:
            # a final failure of a superset of this antecedent, same goal
            members = cache_key[0]
            for failed in maximal.get(cache_key[1], ()):
                if failed.issuperset(members):
                    return None
        if depth <= 0:
            return None
        return self._branch(s, goal, depth, counts, loop_key, cache_key)

    def _branch(self, s: Sequent, goal: Formula, depth: int, counts: _Counts, loop_key, cache_key) -> _Visit:
        """Search a state that _enter did not settle, on the path, and
        record its failure: as final when no cycle beneath it closes above
        it, else as pending (see _path)."""
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
            # a proof voids the subtree's provisional failures: they assumed
            # ancestors with no proof
            del self._pending[mark:]
            self._low = outer_low
            return result
        if self._low >= level:
            # no cycle escapes this node, so its failure and every
            # provisional failure beneath it are final
            for key, d in self._pending[mark:]:
                self._record(key, d)
            del self._pending[mark:]
            self._record(cache_key, depth)
            self._low = outer_low
        else:
            self._pending.append((cache_key, depth))
            if outer_low < self._low:
                self._low = outer_low
        return None

    def _record(self, cache_key: tuple, depth: int) -> None:
        """Record a final failure: in failed, with the most depth it failed
        under; or, where failures subsume, as its antecedent's key set under
        its goal's key, unless a stored set holds it, dropping the stored
        sets it holds."""
        maximal = self._maximal
        if maximal is None:
            prev = self.failed.get(cache_key)
            if prev is None or prev < depth:
                self.failed[cache_key] = depth
            return
        members, goal_key, _ = cache_key
        sets = maximal.get(goal_key)
        if sets is None:
            maximal[goal_key] = [frozenset(members)]
        elif not any(m.issuperset(members) for m in sets):
            failed = frozenset(members)
            sets[:] = [m for m in sets if not failed.issuperset(m)]
            sets.append(failed)

    def _apply(self, rule: RuleId, s, side: str, i: int, f, depth, counts) -> _Visit:
        """Apply an invertible rule: search its premises in order and stop at
        the first that fails.  The eigen rules, the invertible rules of a
        quantifier, get a fresh constant."""
        eigen = self._fresh() if type(f) in (Exists, Forall) else None
        subs = []
        for premise in premises(rule, s, i, f, None if eigen is None else Const(eigen)):
            sub = yield (premise, depth, counts)
            if sub is None:
                return None
            subs.append(sub)
        return Proof(rule, s, tuple(subs), (side, i), None, eigen)

    def _eager_step(self, s, depth, counts) -> _Visit | None:
        """The step splitting the first antecedent member whose connective
        this mode decomposes eagerly; None when there is none."""
        ante_rules = INVERTIBLE["ante"]
        for i, f in enumerate(s.ante):
            k = type(f)
            if k in self._eager:
                return self._apply(ante_rules[k], s, "ante", i, f, depth, counts)
        return None

    def _right_rule(self, s, goal, depth, counts) -> _Visit | None:
        """The step introducing a compound goal by its right rule, None for
        an atomic goal.  Both search modes share this."""
        k = type(goal)
        if k in _RIGHT_INVERTIBLE:
            return self._apply(_RIGHT_INVERTIBLE[k], s, "succ", 0, goal, depth, counts)
        if k is Or or k is Exists:
            return self._right_choice(s, goal, depth, counts)
        return None

    def _right_choice(self, s, goal, depth, counts) -> _Visit:
        """Introduce a disjunction or existential goal: try each disjunct,
        or each witness within the quantifier budget, until one is proved."""
        if type(goal) is Or:
            for rule in (_OR_R_LEFT, _OR_R_RIGHT):
                (premise,) = premises(rule, s, 0, goal)
                sub = yield (premise, depth, counts)
                if sub is not None:
                    return Proof(rule, s, (sub,), ("succ", 0))
            return None
        key = self._item(goal)[0]
        if counts.get(key, 0) < self.limits.quantifier_budget:
            c2 = self._raised(counts, key)
            for t in self._witnesses(s):
                (premise,) = premises(_EXISTS_R, s, 0, goal, t)
                sub = yield (premise, depth, c2)
                if sub is not None:
                    return Proof(_EXISTS_R, s, (sub,), ("succ", 0), witness=t)
        return None

    # invertible-first search over the starred single-succedent rules
    def _search_starred(self, s, goal, depth, counts) -> _Visit:
        # both branches of imp-l*-int keep an atomic goal, so an unmatchable
        # one dooms the whole subtree
        if type(goal) in (Atom, Bot) and not self._attainable(s, goal):
            return None
        step = self._eager_step(s, depth, counts)
        if step is not None:
            return (yield from step)
        # the right rules of and, imp and forall are invertible; those of or
        # and exists are genuine choice points, and the left rules below
        # follow in a fixed order when they fail
        step = self._right_rule(s, goal, depth, counts)
        if step is not None:
            sub = yield from step
            if sub is not None or type(goal) in _RIGHT_INVERTIBLE:
                return sub
        for i, f in enumerate(s.ante):
            if isinstance(f, Imp):
                sub1 = yield (Sequent._presorted(s.ante, (f.left,)), depth, counts)
                if sub1 is not None:
                    sub2 = yield (s.replace_ante(i, (f.right,)), depth, counts)
                    if sub2 is not None:
                        return Proof(_IMP_L_STAR_INT, s, (sub1, sub2), ("ante", i))
        for i, f in enumerate(s.ante):
            if isinstance(f, Forall):
                for t, premise, c2 in self._forall_premises(s, f, counts):
                    sub = yield (premise, depth, c2)
                    if sub is not None:
                        return Proof(_FORALL_L_STAR, s, (sub,), ("ante", i), witness=t)
        return None

    # goal-directed search emitting plain rules
    def _search_uniform(self, s, goal, depth, counts) -> _Visit:
        step = self._right_rule(s, goal, depth, counts)
        if step is not None:
            return (yield from step)

        # atomic (or bottom) goal: a goal no antecedent head can produce is
        # hopeless here, and only the restart step at the end can rescue it
        if self._attainable(s, goal):
            # invertible consuming steps commit first: splitting a disjunction
            # or opening an existential at an exempt goal loses no proofs
            # (with a restart goal the disjunction step is a genuine choice
            # and stays in the backchain loop below)
            step = self._eager_step(s, depth, counts)
            if step is not None:
                return (yield from step)

            if self.rgoal is not None:
                # the restart split is a genuine choice, but each disjunct
                # alone must still carry the goal: replacing the disjunction
                # by either side maps any proof to a proof (a restart step
                # absorbs the goal swap at the split's second branch), so one
                # failing projection dooms the node
                for i, f in enumerate(s.ante):
                    if type(f) is not Or:
                        continue
                    for premise in premises(_OR_L, s, i, f):
                        if (yield (premise, depth, counts)) is None:
                            return None
                    break

            # backchain on the antecedent
            for i, f in enumerate(s.ante):
                match f:
                    case Imp(l, r):
                        sub1 = yield (Sequent._presorted(s.ante, (l,)), depth, counts)
                        if sub1 is None:
                            continue
                        sub2 = yield (s.plus(ante=(r,)), depth, counts)
                        if sub2 is None:
                            continue
                        return self._contracted(s, f, _IMP_L, (sub1, sub2))
                    case And(l, r):
                        for rule, kept in ((_AND_L_LEFT, l), (_AND_L_RIGHT, r)):
                            if kept in s.ante:
                                continue
                            sub = yield (s.plus(ante=(kept,)), depth, counts)
                            if sub is not None:
                                return self._contracted(s, f, rule, (sub,))
                    case Forall():
                        for t, premise, c2 in self._forall_premises(s, f, counts):
                            sub = yield (premise, depth, c2)
                            if sub is not None:
                                return self._contracted(s, f, _FORALL_L, (sub,), witness=t)
                    case Or():
                        # only reached with a restart goal; the plain split
                        # happened eagerly above
                        first, second = premises(_OR_L_RESTART, s, i, f, None, self.rgoal)
                        sub1 = yield (first, depth, counts)
                        if sub1 is None:
                            continue
                        sub2 = yield (second, depth, counts)
                        if sub2 is None:
                            continue
                        return Proof(_OR_L_RESTART, s, (sub1, sub2), ("ante", i))
        if self.rgoal is not None and goal != self.rgoal:
            sub = yield (Sequent._presorted(s.ante, (self.rgoal,)), depth, counts)
            if sub is not None:
                return Proof(_RESTART, s, (sub,))
        return None

    def _contracted(self, s: Sequent, f: Formula, rule: RuleId, premises, witness: Term | None = None) -> Proof:
        """Wrap a keep-the-clause left step as contraction plus the plain rule."""
        doubled = s.plus(ante=(f,))
        inner = Proof(rule, doubled, premises, ("ante", doubled.ante.index(f)), witness)
        return Proof(_CONTR_L, s, (inner,), ("ante", s.ante.index(f)))

    def run(self) -> SearchOutcome:
        qf = self.quantifier_free
        # quantifier-free search has no depth bound (the loop check is what
        # terminates it), so only the node budget cuts it; its paths grow on
        # drive's own stack, not the interpreter's
        depth = 10**9 if qf else self.limits.depth
        try:
            proof = drive(self._enter, self.root, depth, _NO_COUNTS)
        except _OutOfNodes:
            return NotProvedWithinLimits()
        if proof is not None:
            if self.rgoal is not None:
                return Proved(proof, restart_class(self.rgoal))
            return Proved(proof, UNIFORM if self.uniform else INTUITIONISTIC_STAR)
        if not self.uniform and qf:
            return Refuted()
        return NotProvedWithinLimits()


# ---------------------------------------------------------------------------
# classical valuation of roots


def _atom_patterns(n: int) -> tuple[int, ...]:
    """Each atom's truth over the 2**n valuations of n atoms, as an int:
    bit v of atom k's pattern is bit k of v."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(n))


#: the atom patterns a valuation tries in turn; the last try's atom count is
#: the bound past which a sequent is searched without one.  Five atoms cover
#: the quantifier-free sequents of the benchmark's streams with small ints.
_PATTERNS = (_atom_patterns(5), _atom_patterns(12))


#: the last root verdict, (members' sort keys, verdict), replaced as one
#: tuple, so a reader always gets a key with its own verdict
_LAST_VERDICT: tuple = ((), None)


def _classically_valid(s: Sequent) -> bool | None:
    """Whether the sequent s is classically valid; None when s is past the
    bounds below.

    A quantifier-free s is valuated (_valuate): None past 12 distinct
    atoms.  A first-order s is valuated through its Herbrand expansion
    (_herbrand_expansion): None when its Herbrandization keeps a function
    symbol, a free variable or a metavariable, past the expansion's
    instance cap, or past 12 distinct ground atoms.  The last verdict is
    kept by the members' sort keys, which determine each member up to the
    names of its bound variables, on which validity does not depend, so
    asking c, i, o and restart about one sequent valuates it once.

    With one succedent member G, every antecedent copy of G => bot is
    dropped first: Gamma, not G |- G is classically valid exactly when
    Gamma |- G is, so a sequent and its augmentation share one verdict."""
    global _LAST_VERDICT
    if len(s.succ) == 1:
        g = s.succ[0]._key
        ante = tuple([f for f in s.ante if type(f) is not Imp or f.right is not BOT or f.left._key != g])
        if len(ante) < len(s.ante):
            s = Sequent._presorted(ante, s.succ)
    qf = is_quantifier_free_sequent(s)
    key = _members_key(s)
    last = _LAST_VERDICT
    if last[0] == key:
        return last[1]
    ground = s if qf else _herbrand_expansion(s)
    verdict = None if ground is None else _valuate(ground)
    _LAST_VERDICT = (key, verdict)
    return verdict


def _valuate(s: Sequent) -> bool | None:
    """_classically_valid of the quantifier-free sequent s, computed.

    Each formula is read as an int whose bit v is its truth under valuation
    v, by one post-order walk on an explicit stack, memoized by identity
    (interned quantifier-free formulas are equal exactly when identical).
    A try gives up at an atom its patterns do not cover, and the next try,
    with more patterns, walks again."""
    for patterns in _PATTERNS:
        full = (1 << (1 << len(patterns))) - 1
        fresh = iter(patterns)
        val = {id(TOP): full, id(BOT): 0}
        stack = [*s.ante, *s.succ]
        while stack:
            f = stack.pop()
            i = id(f)
            if i in val:
                continue
            t = type(f)
            if t is Atom:
                v = next(fresh, None)
                if v is None:
                    break
            else:
                left, right = val.get(id(f.left)), val.get(id(f.right))
                if left is None or right is None:
                    # back once both parts have a value
                    stack += (f, f.right, f.left)
                    continue
                v = left & right if t is And else left | right if t is Or else (full ^ left) | right
            val[i] = v
        else:
            # the valuations that make every antecedent member true and
            # every succedent member false
            falsifying = full
            for f in s.ante:
                falsifying &= val[id(f)]
            for f in s.succ:
                falsifying &= ~val[id(f)]
            return not falsifying
    return None


#: the most quantifier instances one Herbrand expansion builds
_INSTANCE_CAP = 1_024


def _herbrand_expansion(s: Sequent) -> Sequent | None:
    """A quantifier-free sequent that is classically valid exactly when s
    is; None when s's Herbrandization keeps a function symbol, a free
    variable or a metavariable, or when more than _INSTANCE_CAP quantifier
    instances would be built.

    herbrandize preserves classical validity, and its result h holds only
    weak quantifiers: universal on the left, existential on the right.
    With no function symbol in h, h's Herbrand universe is the finite set U
    of its constants (one fresh constant when it has none), so by
    Herbrand's theorem h is valid exactly when the sequent is valid in
    which each quantifier is replaced by the conjunction (universal) or the
    disjunction (existential) of its instances over U, in sort order.  A
    falsifying valuation of that expansion is a countermodel of s with
    domain U.  Uniform provability implies intuitionistic provability, and
    that classical provability, so the verdict settles every relation, as
    the valuation of a quantifier-free root does.

    The expansion is built bottom up on an explicit stack, each subformula
    once per assignment of constants to the loose bound variables it
    mentions, innermost first; a closed quantifier-free subformula is its
    own expansion."""
    h = herbrandize(s)
    constants = set()
    for t in _walk(h, _TERM_TYPES):
        if type(t) is Const:
            constants.add(t)
        elif type(t) is not Bound:
            return None
    # h has no constant then, so any name is fresh
    universe = sorted(constants, key=_KEY) or [Const("c")]
    left = _INSTANCE_CAP
    # (id of a subformula of h, the constants its loose bound variables
    # stand for) -> its expansion
    done: dict[tuple, Formula] = {}
    stack = [(f, ()) for f in (*h.ante, *h.succ)]
    while stack:
        f, env = stack.pop()
        key = (id(f), env[: f._lbr])
        if key in done:
            continue
        k = type(f)
        if f._qf and not f._lbr:
            g = f
        elif k is Atom:
            g = Atom(f.pred, [a if type(a) is Const else env[a.index] for a in f.args])
        elif k is Forall or k is Exists:
            body = f.body
            # a vacuous quantifier has one instance
            instances = [(c,) + env for c in (universe if body._lbr else universe[:1])]
            parts = [done.get((id(body), e[: body._lbr])) for e in instances]
            missing = [(body, e) for e, part in zip(instances, parts) if part is None]
            if missing:
                left -= len(missing)
                if left < 0:
                    return None
                stack.append((f, env))
                stack += missing
                continue
            g = parts.pop()
            join = And if k is Forall else Or
            while parts:
                g = join(parts.pop(), g)
        else:
            a = done.get((id(f.left), env[: f.left._lbr]))
            b = done.get((id(f.right), env[: f.right._lbr]))
            if a is None or b is None:
                stack += ((f, env), (f.right, env), (f.left, env))
                continue
            g = k(a, b)
        done[key] = g
    n = len(h.ante)
    members = [done[(id(f), ())] for f in (*h.ante, *h.succ)]
    return Sequent(members[:n], members[n:])


# ---------------------------------------------------------------------------
# entry points


def prove(s: Sequent, logic: str = "c", limits: SearchLimits | None = None) -> SearchOutcome:
    """Search for a proof of s in the given logic: c, i, or o.

    Classical outcomes for quantifier-free sequents are definitive (Proved or
    Refuted), and so are those for first-order sequents that are
    function-free once Herbrandized, within the bounds of
    _classically_valid; other quantified sequents may come back
    NotProvedWithinLimits.  The i logic decides quantifier-free sequents
    too.  The o (goal-directed) logic never refutes.

    s is first valuated classically, a first-order s through its Herbrand
    expansion (see _classically_valid), or its verdict read back when the
    previous call valuated an equal sequent.  A falsifying valuation settles
    every logic without a search and spends no nodes: uniform provability
    implies intuitionistic and that classical provability, so c and i
    return Refuted, whatever the limits, and o returns
    NotProvedWithinLimits.  Otherwise the search runs as if there were no
    valuation, so every Proved outcome is the search's.
    """
    limits = limits or SearchLimits()
    if logic not in ("c", "i", "o"):
        raise ValueError(f"unknown logic {logic!r} (expected c, i, or o)")
    if logic != "c" and len(s.succ) != 1:
        raise ValueError(f"logic {logic!r} needs exactly one succedent formula, got {s}")
    if _classically_valid(s) is False:
        return NotProvedWithinLimits() if logic == "o" else Refuted()
    if logic == "c":
        return _ClassicalProver(s, limits).run()
    return _GroundProver(s, limits, uniform=(logic == "o")).run()


def prove_restart(s: Sequent, limits: SearchLimits | None = None) -> SearchOutcome:
    """Goal-directed search with restart: the succedent formula is the restart goal.

    An s that a valuation falsifies (as in prove), quantifier-free or
    through its Herbrand expansion, returns NotProvedWithinLimits without a
    search: restart proofs are classical."""
    if len(s.succ) != 1:
        raise ValueError(f"restart search needs exactly one succedent formula, got {s}")
    if _classically_valid(s) is False:
        return NotProvedWithinLimits()
    return _GroundProver(s, limits or SearchLimits(), uniform=True, restart_goal=s.succ[0]).run()
