"""Proof search: classical, intuitionistic, goal-directed and restart provers.

Three engines share this module:

* The classical prover works on the contraction-free multiset calculus.
  Quantifier witnesses are metavariables resolved by unification (with an
  occurs check); eigenvariables for the fresh-constant rules are function
  terms over the metavariables alive at that point, so the occurs check
  doubles as the freshness proviso.  Iterative deepening raises the number of
  instantiations allowed per quantified formula per branch.  Two failure
  memos skip searches that already failed: a rule's second premise is
  searched once per substitution its first premise yields, and its failures
  are kept per rule application by the resolved bindings of its
  metavariables; a premise a vacuous quantifier's instance extends recurs
  under other orders of instantiation, and its failures are kept per search
  by its members, their tallies, the round and those bindings.  A skipped
  search is charged the nodes it spent and numbers off the metavariables it
  made, so every outcome is the one the full search gives.  Failures that
  made an eigenvariable are not kept: eigenvariable names compare as strings
  (e10 < e9), so one renumbered later could sort differently.  Unification,
  the occurs check and resolution walk explicit stacks.  Quantifier-free
  inputs take a saturation path that decides the sequent outright.

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
engine.  It runs in the caller's thread on an explicit stack of suspended
rule applications, so a search path may be as long as memory allows and a
call changes no interpreter-wide setting; concurrent calls are independent.
Its per-mode table `_EAGER` names the antecedent connectives it splits
eagerly, and so the members its loop check must not collapse.  Its loop
check and failure cache key a state by a tuple of its members' stored sort
keys; only a member holding a constant the search made itself is
serialized, with those constants renamed by first occurrence, once per
search for each antecedent.  A quantifier-free search makes no constant, so
it keys every state by sort keys alone.  Its relevance check reads a
per-formula index of positive heads.  Every engine takes its invertible
rules from `calculus.INVERTIBLE` and builds their premises with
`calculus.premises`, as the checker does; so does the restart disjunction
step.  The starred search's imp-l*-int step builds its two premises by
hand, the second only once the first has a proof: taking both from
`premises` builds the second also when the first fails, and made i and o
searches of random goal sequents slower, o by about 9%.  A visit starts
with an entry step that settles closures, loop-check hits, recorded
failures and depth cuts; only a state that branches gets a generator.

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

Before any engine is built, `prove` and `prove_restart` valuate a
quantifier-free root classically.  Each distinct atom gets a fixed bit
pattern over all 2**n valuations of the n atoms, each formula is one int
built by `&`, `|` and complement in one post-order walk on an explicit
stack, and the sequent is valid iff AND(ante) & ~OR(succ) == 0.  Uniform
provability implies intuitionistic and that classical provability, so a
falsifying valuation settles every relation at once: c and i return
Refuted, o and restart NotProvedWithinLimits, and no node is spent, so c
and i refute such a root even with no node budget.  A root with a
quantifier or with more than 12 distinct atoms is searched as before, and
so is every valid root, so no proof changes.  Only the root is valuated:
pruning every classically invalid state of the i and o searches made
their searches of valid sequents about a fifth slower.

Both engines extend one search context, `_Search`: the root, the limits,
the nodes left, and the constants the search made, in `made`, each named
under a prefix that avoids the root's symbols.  Every memo is keyed by
values (sort keys, numbers, ids), never by a live sequent.  The pure memos,
whose evicted entries are just recomputed, are kept by `syntax._stored`,
which empties a memo when it reaches `syntax._MEMO_CAP` entries, so their
memory stays bounded and no outcome changes: `_instances`, `_wit_memo`,
`_items`, `_heads`, `_antes` and the classical `_metas`.  What prunes or
numbers the search stays unbounded, as evicting it would change node
counts or keys: the failure caches, `_numbers`, `_path` and `_pending`.

Outcomes are frozen, slotted dataclasses.  A `Proved` outcome carries one
of `calculus`'s shared class constants, `CLASSICAL_STAR` under c,
`INTUITIONISTIC_STAR` under i and `UNIFORM` under o; only a restart proof
builds its class, which holds the search's goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from operator import attrgetter
from types import GeneratorType
from typing import Callable, Generator, Iterable, Iterator, Union

from .calculus import (
    CLASSICAL_STAR,
    INTUITIONISTIC_STAR,
    INVERTIBLE,
    UNIFORM,
    Proof,
    ProofClass,
    RuleId,
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
    _stored,
    forall as bind_forall,
    free_symbols,
    ground_subterms,
    instantiate,
    is_quantifier_free,
    map_terms,
    metas_in,
    predicate_names,
    term_key,
    term_size,
)

# the rules the provers build and compare, as module globals: reading an
# Enum member through its class costs about ten times a global read
_AND_L_LEFT = RuleId.AND_L_LEFT
_AND_L_RIGHT = RuleId.AND_L_RIGHT
_AXIOM = RuleId.AXIOM
_BOT_R = RuleId.BOT_R
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
        """t with every bound metavariable replaced by its resolved binding.
        Walks an explicit stack, so nesting depth costs no recursion."""
        t = self.walk(t)
        if type(t) is not App:
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
            if type(u) is App and u.args:
                stack.append(u)
                stack.append(None)
                stack += reversed(u.args)
            else:
                done.append(u)
        return done[0]

    def resolve_formula(self, f: Formula) -> Formula:
        return map_terms(f, lambda a, _: self.resolve_term(a))

    def unbound(self, idents: Iterable[int]) -> set[int]:
        """The metavariables the given ones resolve into: metas_in of their
        resolved forms, found by following the bindings, building no term."""
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
            else:
                todo += metas_in(t)
        return out


class _Grounding(Subst):
    """A substitution's grounding: each term walks as under the substitution,
    then a metavariable it leaves unbound as the blank constant and a term
    headed by an eigenvariable as that name, so resolve_term grounds a term
    in one pass."""

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
    explicit stack, so nesting depth costs no recursion."""
    if t._lbr:
        return True
    stack = [t]
    while stack:
        u = subst.walk(stack.pop())
        k = type(u)
        if k is App:
            stack += u.args
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
        # terms are interned: equal terms are one object
        if a is b:
            continue
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
    are equal under it.  Binder display names are irrelevant.  Parts are
    unified left to right on an explicit stack, so nesting depth costs no
    recursion."""
    stack = [(f, g)]
    while stack:
        f, g = stack.pop()
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
    taken = _symbols_everywhere(s)
    fns = (name for name in map("h{}".format, count()) if name not in taken)
    weak_vars = map("_w{}".format, count())
    # visits (formula, polarity, weak variables) and, below the visits of a
    # binary connective's or weak quantifier's parts, its rebuild (formula,
    # None, weak variable or None): left parts first, as a recursion takes them
    done: list[Formula] = []
    stack = [(f, True, ()) for f in reversed(s.succ)] + [(f, False, ()) for f in reversed(s.ante)]
    while stack:
        f, positive, weak = stack.pop()
        k = type(f)
        if positive is None:
            if k is Forall or k is Exists:
                done[-1] = k(bind_forall(weak, done[-1]).body, f.hint)
            else:
                right = done.pop()
                done[-1] = k(done[-1], right)
        elif k is And or k is Or or k is Imp:
            stack += ((f, None, None), (f.right, positive, weak), (f.left, positive != (k is Imp), weak))
        elif k is Forall or k is Exists:
            if positive == (k is Forall):
                name = next(fns)
                t: Term = App(name, tuple(map(Var, weak))) if weak else Const(name)
                stack.append((instantiate(f, t), positive, weak))
            else:
                v = next(weak_vars)
                stack += ((f, None, v), (instantiate(f, Var(v)), positive, weak + (v,)))
        else:
            done.append(f)
    return Sequent(done[: len(s.ante)], done[len(s.ante) :])


# ---------------------------------------------------------------------------
# limits and outcomes


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for proof search.

    depth bounds rule applications per branch in the ground searches;
    quantifier-free inputs are decided by saturation or loop-checked search
    and ignore it.  quantifier_budget caps how often any one quantified
    formula may be instantiated per branch (the classical prover deepens
    iteratively on this).  node_budget bounds total expansions per call; a
    failure the classical prover skips because it is memoized counts at its
    full size, so no outcome depends on the memo.
    strengthened_axioms lets closures match any shared formula rather than
    only shared atoms and bottom.
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

    def tick(self) -> None:
        if self.left <= 0:
            raise _OutOfNodes
        self.left -= 1

    def charge(self, nodes: int) -> None:
        """Spend nodes ticks at once: out of nodes, with none left, when
        fewer are left, as the tick that would have found none."""
        if self.left < nodes:
            self.left = 0
            raise _OutOfNodes
        self.left -= nodes

    def _made_name(self, base: str, number: int) -> str:
        """The made constant number under base's prefix, which avoids every
        symbol of the root and is reserved on first need; kept in made."""
        prefix = self._prefixes.get(base)
        if prefix is None:
            prefix = self._prefixes[base] = _reserved_prefix(base, _symbols_everywhere(self.root))
        name = f"{prefix}{number}"
        self.made.add(name)
        return name


def _reserved_prefix(base: str, taken: set[str]) -> str:
    """A prefix such that prefix+digits collides with nothing in taken."""
    prefix = base
    while any(t.startswith(prefix) and t[len(prefix) :].isdigit() for t in taken):
        prefix += base
    return prefix


def _symbols_everywhere(s: Sequent) -> set[str]:
    out = set(free_symbols(s))
    for f in s.ante + s.succ:
        out |= predicate_names(f)
    return out


def is_quantifier_free_sequent(s: Sequent) -> bool:
    return all(map(is_quantifier_free, s.ante)) and all(map(is_quantifier_free, s.succ))


def _has_bot(ante: tuple[Formula, ...]) -> bool:
    """BOT in ante, by identity: top and bottom are interned, and in a
    sorted side only top sorts before bottom."""
    for f in ante:
        if f is not TOP:
            return f is BOT
    return False


def _invertible_step(s: Sequent) -> tuple[RuleId, str, int, Formula] | None:
    """The invertible rule of the first member of s that has one, antecedent
    first, as (rule, side, index, principal); None if no member has one."""
    for side, members in (("ante", s.ante), ("succ", s.succ)):
        rules = INVERTIBLE[side]
        for i, f in enumerate(members):
            rule = rules.get(type(f))
            if rule is not None:
                return rule, side, i, f
    return None


# ---------------------------------------------------------------------------
# classical prover


def _members_key(s: Sequent) -> tuple:
    """The sort keys of s's members, side by side."""
    return tuple(map(_KEY, s.ante)), tuple(map(_KEY, s.succ))


#: the classical prover's quantifier instantiations: (side, connective, rule)
_INSTANTIATIONS = (("ante", Forall, _FORALL_L_STAR), ("succ", Exists, _EXISTS_R_STAR))


class _ClassicalProver(_Search):
    """Its made constants are the eigenvariables e<n>, numbered in order,
    and, once the search is over, a proof's blank c0 (see _ground)."""

    def __init__(self, root: Sequent, limits: SearchLimits):
        super().__init__(root, limits)
        self.next_meta = 0
        # each member's own metavariables, by the member's sort key
        self._metas: dict[str, frozenset[int]] = {}
        # the failures of premises that vacuous instantiations extend (see
        # _memoized), by _members_key, then by _rest_key
        self._failed: dict[tuple, dict[tuple, tuple[int, int]]] = {}

    # -- quantifier-free decision -------------------------------------------

    def decide(self, s: Sequent) -> Proof | None:
        """Saturation decision: every propositional rule here is invertible,
        so one principal per sequent suffices and a failed leaf refutes."""
        self.tick()
        if is_axiom(s, self.limits.strengthened_axioms):
            return Proof(_AXIOM, s)
        if s.succ and _has_bot(s.ante):
            (premise,) = premises(_BOT_R, s, 0, s.succ[0])
            return Proof(_BOT_R, s, (Proof(_AXIOM, premise),), ("succ", 0))

        step = _invertible_step(s)
        if step is None:
            return None
        rule, side, i, f = step
        subs = []
        for premise in premises(rule, s, i, f):
            sub = self.decide(premise)
            if sub is None:
                return None
            subs.append(sub)
        return Proof(rule, s, tuple(subs), (side, i))

    # -- metavariable search --------------------------------------------------

    def fresh_meta(self) -> Meta:
        m = Meta(self.next_meta)
        self.next_meta += 1
        return m

    def fresh_eigen(self) -> str:
        return self._made_name("e", len(self.made))

    def _axiom_pairs(self, s: Sequent) -> Iterator[tuple[Formula, Formula]]:
        strengthened = self.limits.strengthened_axioms
        for a in s.ante:
            if not (strengthened or isinstance(a, (Atom, Bot))):
                continue
            for b in s.succ:
                if type(a) is type(b) and (type(a) is not Atom or a.pred == b.pred and len(a.args) == len(b.args)):
                    yield a, b

    def solve(
        self, s: Sequent, subst: Subst, counts: dict[Formula, int], mult: int
    ) -> Iterator[tuple[Subst, Proof]]:
        """Yield substitution/skeleton pairs that close every branch over s:
        a skeleton is a proof whose sequents may hold metavariables."""
        self.tick()

        # definitive closures: no metavariable bindings involved
        if s.succ and s.succ[0] is TOP:
            # top is interned and sorts first in a sorted side
            yield subst, Proof(_AXIOM, s)
            return
        if s.succ and _has_bot(s.ante):
            (premise,) = premises(_BOT_R, s, 0, s.succ[0])
            yield subst, Proof(_BOT_R, s, (Proof(_AXIOM, premise),), ("succ", 0))
            return
        # a pair that unifies without a new binding is already equal under
        # subst and closes definitively; pairs that commit to bindings are
        # alternatives, tried in order when no pair closes definitively
        alternatives = []
        for a, b in self._axiom_pairs(s):
            nxt = unify_formulas(a, b, subst)
            if nxt is subst:
                yield subst, Proof(_AXIOM, s)
                return
            if nxt is not None:
                alternatives.append(nxt)
        for nxt in alternatives:
            yield nxt, Proof(_AXIOM, s)

        # one invertible step, when available
        step = _invertible_step(s)
        if step is not None:
            rule, side, i, f = step
            term = eigen = None
            if type(f) in (Exists, Forall):
                eigen = self.fresh_eigen()
                live = self._live_metas(s, subst)
                term = App(eigen, tuple(Meta(m) for m in live)) if live else Const(eigen)
            for sb, subs in self._solve_all(premises(rule, s, i, f, term), subst, counts, mult):
                yield sb, Proof(rule, s, subs, (side, i), eigen=eigen)
            return

        # quantifier instantiations: the only genuine proof-shape choices left
        for side, k, rule in _INSTANTIATIONS:
            for i, f in enumerate(s.ante if side == "ante" else s.succ):
                if type(f) is k and counts.get(f, 0) < mult:
                    m = self.fresh_meta()
                    c2 = dict(counts)
                    c2[f] = c2.get(f, 0) + 1
                    (premise,) = premises(rule, s, i, f, m)
                    if not f.body._lbr:
                        # a vacuous instantiation (members are locally
                        # closed, so the body holds no index of f's binder):
                        # the premise recurs under other orders of them
                        members = partial(_members_key, premise)
                        rest = partial(self._rest_key, premise, subst, c2, mult)
                        closings = self._memoized(self._failed, members, rest, premise, subst, c2, mult)
                    else:
                        closings = self.solve(premise, subst, c2, mult)
                    for sb, sk in closings:
                        yield sb, Proof(rule, s, (sk,), (side, i), m)

    def _own_metas(self, s: Sequent) -> set[int]:
        """The metavariables s's members hold, each member's memoized by its
        sort key."""
        memo = self._metas
        own: set[int] = set()
        for f in s.ante + s.succ:
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

    def _resolved(self, s: Sequent, subst: Subst) -> tuple[str, ...]:
        """The sort keys of the resolved bindings of s's metavariables, in
        the order of their numbers."""
        return tuple([subst.resolve_term(Meta(i))._key for i in sorted(self._own_metas(s))])

    def _rest_key(self, s: Sequent, subst: Subst, counts: dict[Formula, int], mult: int) -> tuple:
        """What a search of s under subst, counts and mult depends on beside
        its members' sort keys (_members_key): the tallies of the members an
        instantiation may pick, mult, and the resolved bindings of its
        metavariables.  Every formula counts holds is such a member of s:
        instantiations keep their principal."""
        return (
            tuple([counts.get(f, 0) for f in s.ante if type(f) is Forall]),
            tuple([counts.get(f, 0) for f in s.succ if type(f) is Exists]),
            mult,
            self._resolved(s, subst),
        )

    def _memoized(
        self,
        memo: dict,
        head_of: Callable[[], tuple],
        rest_of: Callable[[], tuple],
        s: Sequent,
        subst: Subst,
        counts,
        mult: int,
    ):
        """solve(s, subst, counts, mult) through a failure memo.  A search
        that yields nothing and makes no eigenvariable is stored under its
        key with the nodes it spent and the metavariables it made; a later
        search under the same key is skipped, its nodes charged to the
        budget and its metavariables numbered off, so the search goes on
        exactly as if it had run.  It would run alike: the fresh
        metavariables are numbered above every one the state holds, and
        metavariable sort keys order numerically, so members sort and
        unify the same way.  Eigenvariable names compare as strings
        (e10 < e9), so a failure that made one is not stored.  The key is
        the pair (head_of(), rest_of()), held as memo[head][rest]: the head
        is asked for only when memo holds failures to look up or the search
        failed, and the rest, dearer, only when failures are stored under
        that head too or the search failed."""
        head = rest = None
        if memo:
            head = head_of()
            under = memo.get(head)
            if under is not None:
                rest = rest_of()
                got = under.get(rest)
                if got is not None:
                    nodes, made = got
                    self.charge(nodes)
                    self.next_meta += made
                    return
        left, metas, eigens = self.left, self.next_meta, len(self.made)
        found = False
        for out in self.solve(s, subst, counts, mult):
            found = True
            yield out
        if not found and len(self.made) == eigens:
            under = memo.setdefault(head_of() if head is None else head, {})
            under[rest_of() if rest is None else rest] = (left - self.left, self.next_meta - metas)

    def _solve_all(self, prems, subst, counts, mult) -> Iterator[tuple[Subst, tuple[Proof, ...]]]:
        """solve over the one or two premises of a rule, threading the
        substitution from the first into the second.  The second premise
        is searched once per substitution the first yields; its failures
        are memoized by the resolved bindings of its metavariables."""
        if len(prems) == 1:
            for sb, sk in self.solve(prems[0], subst, counts, mult):
                yield sb, (sk,)
            return
        p1, p2 = prems
        failed: dict[tuple, dict[tuple, tuple[int, int]]] = {}
        for sb1, sk1 in self.solve(p1, subst, counts, mult):
            # keyed by the resolved bindings alone: the rest is the empty tuple
            for sb2, sk2 in self._memoized(failed, partial(self._resolved, p2, sb1), tuple, p2, sb1, counts, mult):
                yield sb2, (sk1, sk2)

    # -- grounding -------------------------------------------------------------

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
        # sorted once into a tuple the nodes that list it share
        grounded: dict[int, Formula] = {}
        sides: dict[int, tuple[Formula, ...]] = {}

        def gformula(f: Formula) -> Formula:
            g = grounded.get(id(f))
            if g is None:
                g = grounded[id(f)] = map_terms(f, lambda a, _: gterm(a))
            return g

        def gside(side: tuple[Formula, ...]) -> tuple[Formula, ...]:
            g = sides.get(id(side))
            if g is None:
                g = sides[id(side)] = tuple(sorted(map(gformula, side), key=_KEY))
            return g

        def leave(sk: Proof, grounded_premises: tuple[Proof, ...]) -> Proof:
            s = sk.conclusion
            seq = Sequent._presorted(gside(s.ante), gside(s.succ))
            principal = sk.principal
            if principal is not None:
                side, i = principal
                pf = gformula((s.ante if side == "ante" else s.succ)[i])
                principal = (side, (seq.ante if side == "ante" else seq.succ).index(pf))
            witness = None if sk.witness is None else gterm(sk.witness)
            return Proof(sk.rule, seq, grounded_premises, principal, witness, sk.eigen)

        return fold_proof(skel, leave)

    def run(self) -> SearchOutcome:
        if is_quantifier_free_sequent(self.root):
            try:
                proof = self.decide(self.root)
            except _OutOfNodes:
                return NotProvedWithinLimits()
            if proof is None:
                return Refuted()
            return Proved(proof, CLASSICAL_STAR)
        try:
            for mult in range(1, self.limits.quantifier_budget + 1):
                for subst, skel in self.solve(self.root, Subst(), {}, mult):
                    return Proved(self._ground(skel, subst), CLASSICAL_STAR)
        except _OutOfNodes:
            pass
        return NotProvedWithinLimits()


# ---------------------------------------------------------------------------
# intuitionistic / goal-directed / restart prover


#: template tag of each compound connective
_TAGS = {And: "&(", Or: "|(", Imp: ">(", Forall: "A.", Exists: "E."}

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
        self.truncated = False
        # definitive failures per canonical state, each recorded with the
        # depth and instantiation tallies it failed under; empty where
        # failures subsume (see _maximal)
        self.failed: dict = {}
        # formula memos keyed by the formula's sort key, which is
        # alpha-invariant and hashes in C: the head index, and the
        # loop-check item (text, holes, eager) of a member or goal
        self._heads: dict[str, dict | bool] = {}
        self._items: dict[str, tuple[str, tuple[str, ...], bool]] = {}
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
        """f's loop-check item (text, holes, eager): its template text and
        holes when it holds a made constant, else its sort key and no holes;
        eager tells whether this mode splits f eagerly.  The text also keys
        f's instantiation tallies, where f is quantified: its sort key then
        starts with a digit tag and its template text with "A." or "E.", so
        the two kinds of text never meet.  Memoized by f's sort key: a
        constant's status never changes, since made names avoid the root's
        symbols and a made constant enters a state only after it is made."""
        got = self._items.get(f._key)
        if got is None:
            text, holes = self._template(f)
            got = _stored(self._items, f._key, (text if holes else f._key, holes, type(f) in self._eager))
        return got

    def _template(self, f: Formula) -> tuple[str, tuple[str, ...]]:
        """Serialize f: a flat token text with each made constant replaced
        by a hole number, plus the hole fillers in first-occurrence order.
        The text is an injective function of f's structure with its made
        constants taken as holes.  Walks an explicit stack, emitting tokens
        left to right, so hole numbers follow first occurrence and nesting
        depth costs no recursion."""
        made = self.made
        holes: dict[str, int] = {}
        out: list[str] = []
        stack: list = [f]
        while stack:
            x = stack.pop()
            k = type(x)
            if k is str:
                out.append(x)
            elif k is Const:
                n = x.name
                out.append(f"!{holes.setdefault(n, len(holes))}" if n in made else n)
            elif k is Atom and not x.args:
                out.append(x.pred)
            elif k is Atom or k is App:
                args = x.args
                out.append((x.pred if k is Atom else x.name) + "(")
                stack.append(")")
                for i in range(len(args) - 1, 0, -1):
                    stack.append(args[i])
                    stack.append(",")
                if args:
                    stack.append(args[0])
            elif k is Bound:
                out.append(f"#{x.index}")
            elif k is Top or k is Bot:
                out.append("T" if k is Top else "F")
            elif k is Forall or k is Exists:
                out.append(_TAGS[k])
                stack.append(x.body)
            elif k in _TAGS:
                out.append(_TAGS[k])
                stack += (")", x.right, ",", x.left)
            else:
                out.append(x.name)
        return "".join(out), tuple(holes)

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
        its holes continuing the antecedent's renaming.  So isomorphic
        states tend to compare equal, and equal states always do.

        These keys are equal exactly when the earlier keys were, which were
        joined strings with every member as its template text.  A template
        text is an injective function of a member's structure, and hole
        numbers keep their left-to-right first-occurrence order.  Changing
        the text encoding, as from template text to sort key for members
        without holes, therefore only moves whole blocks of equal text
        within the sorted order, and applying the same block move to two
        states does not change whether their renamed hole sequences agree.
        Flattening the holed members and numbering them are injective
        within a search."""
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
        members' sort keys.  Each member is its item (see _item).  When no
        member has holes, members is sig, already in sorted order, and order
        is empty.  Otherwise the items are sorted and the made constants in
        their holes are renamed by first occurrence to their positions in
        order.  members is then the flat tuple of each member's text
        followed by its renamed holes: a text with holes has at least one,
        a sort key none, so the tuple spells the members out unambiguously.
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
            got = _stored(self._wit_memo, key, sorted(terms, key=lambda t: (term_size(t), term_key(t))))
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

    def search(self, s: Sequent, depth: int, counts: _Counts) -> Proof | None:
        """Search s on an explicit stack in the caller's thread.  Each state
        goes through _enter, which settles a state that does not branch and
        returns its proof or None, and returns a generator for one that
        does.  Such a visit yields each premise it needs as (sequent, depth,
        counts) and receives the premise's proof or None; the stack holds
        the suspended visits of the current path, so the path's length is
        bounded by memory, not by the interpreter's recursion limit."""
        enter = self._enter
        stack: list = []
        result = enter(s, depth, counts)
        while True:
            if type(result) is GeneratorType:
                stack.append(result)
                result = None
            elif not stack:
                return result
            try:
                premise = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                result = enter(*premise)

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
            (premise,) = premises(_BOT_R, s, 0, goal)
            return Proof(_BOT_R, s, (Proof(_AXIOM, premise),), ("succ", 0))

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
            self.truncated = True
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
        # hopeless here, and only a restart can rescue it
        if not self._attainable(s, goal):
            if self.rgoal is not None and goal != self.rgoal:
                sub = yield (Sequent._presorted(s.ante, (self.rgoal,)), depth, counts)
                if sub is not None:
                    return Proof(_RESTART, s, (sub,))
            return None

        # invertible consuming steps commit first: splitting a disjunction or
        # opening an existential at an exempt goal loses no proofs (with a
        # restart goal the disjunction step is a genuine choice and stays in
        # the backchain loop below)
        step = self._eager_step(s, depth, counts)
        if step is not None:
            return (yield from step)

        if self.rgoal is not None:
            # the restart split is a genuine choice, but each disjunct alone
            # must still carry the goal: replacing the disjunction by either
            # side maps any proof to a proof (a restart step absorbs the
            # goal swap at the split's second branch), so one failing
            # projection dooms the node
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
                case _:
                    pass
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
        # terminates it); its paths grow on search's own stack, not the
        # interpreter's
        depth = 10**9 if qf else self.limits.depth
        out_of_nodes = False
        try:
            proof = self.search(self.root, depth, _NO_COUNTS)
        except _OutOfNodes:
            proof, out_of_nodes = None, True
        if proof is not None:
            if self.rgoal is not None:
                return Proved(proof, restart_class(self.rgoal))
            return Proved(proof, UNIFORM if self.uniform else INTUITIONISTIC_STAR)
        if not self.uniform and qf and not self.truncated and not out_of_nodes:
            return Refuted()
        return NotProvedWithinLimits()


# ---------------------------------------------------------------------------
# classical valuation of quantifier-free sequents


def _atom_patterns(n: int) -> tuple[int, ...]:
    """Each atom's truth over the 2**n valuations of n atoms, as an int:
    bit v of atom k's pattern is bit k of v."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(n))


#: the atom patterns a valuation tries in turn; the last try's atom count is
#: the bound past which a sequent is searched without one.  Five atoms cover
#: the quantifier-free sequents of the benchmark's streams with small ints.
_PATTERNS = (_atom_patterns(5), _atom_patterns(12))


def _classically_valid(s: Sequent) -> bool | None:
    """Whether the quantifier-free sequent s holds under every valuation of
    its atoms; None if s has a quantifier or more than 12 distinct atoms.

    Each formula is read as an int whose bit v is its truth under valuation
    v, by one post-order walk on an explicit stack, memoized by identity
    (interned quantifier-free formulas are equal exactly when identical).
    A try gives up at an atom its patterns do not cover, and the next try,
    with more patterns, walks again."""
    if not is_quantifier_free_sequent(s):
        return None
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


# ---------------------------------------------------------------------------
# entry points


def prove(s: Sequent, logic: str = "c", limits: SearchLimits | None = None) -> SearchOutcome:
    """Search for a proof of s in the given logic: c, i, or o.

    Classical outcomes for quantifier-free sequents are definitive (Proved or
    Refuted); quantified sequents may come back NotProvedWithinLimits.  The
    i logic decides quantifier-free sequents too.  The o (goal-directed)
    logic never refutes.

    A quantifier-free s with at most 12 distinct atoms is first valuated
    classically (see _classically_valid).  A falsifying valuation settles
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

    A quantifier-free s that a valuation falsifies (as in prove) returns
    NotProvedWithinLimits without a search: restart proofs are classical."""
    if len(s.succ) != 1:
        raise ValueError(f"restart search needs exactly one succedent formula, got {s}")
    if _classically_valid(s) is False:
        return NotProvedWithinLimits()
    return _GroundProver(s, limits or SearchLimits(), uniform=True, restart_goal=s.succ[0]).run()
