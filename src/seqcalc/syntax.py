"""Core syntax: first-order terms, formulas, and multiset sequents.

Bound variables are stored as nameless (de Bruijn) indices; each binder keeps
a display-name hint that equality, hashing and ordering ignore, so
alpha-equivalent formulas compare equal.  Sequents keep both sides as
multisets in a canonical sorted order (by formula_key, stable), which makes
multiset equality plain tuple equality.  The public Sequent constructor
sorts; only the private Sequent._presorted and the edits without_ante,
without_succ and plus skip that sort, so they must be given sides that are
already in that order.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

# ---------------------------------------------------------------------------
# terms


def _cache_hashes(cls):
    """Terms and formulas serve as multiset members and memo keys, so they are
    hashed far more often than they are built; frozen dataclasses recompute the
    structural hash on every call, so stash it on first use instead."""
    generated = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_cache_hashes
@dataclass(frozen=True)
class Var:
    """Free named variable.  Built programmatically; the parser never emits one."""

    name: str


@_cache_hashes
@dataclass(frozen=True)
class Bound:
    """Occurrence of a bound variable, as the de Bruijn index of its binder."""

    index: int


@_cache_hashes
@dataclass(frozen=True)
class Const:
    name: str


@_cache_hashes
@dataclass(frozen=True)
class App:
    name: str
    args: tuple["Term", ...]


@_cache_hashes
@dataclass(frozen=True)
class Meta:
    """Unification placeholder used by the classical prover.  Prints as X<ident>."""

    ident: int

    @property
    def name(self) -> str:
        return f"X{self.ident}"


Term = Union[Var, Bound, Const, App, Meta]

# ---------------------------------------------------------------------------
# formulas


@_cache_hashes
@dataclass(frozen=True)
class Top:
    pass


@_cache_hashes
@dataclass(frozen=True)
class Bot:
    pass


@_cache_hashes
@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@_cache_hashes
@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@_cache_hashes
@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@_cache_hashes
@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@_cache_hashes
@dataclass(frozen=True)
class Forall:
    body: "Formula"
    hint: str = field(default="x", compare=False)


@_cache_hashes
@dataclass(frozen=True)
class Exists:
    body: "Formula"
    hint: str = field(default="x", compare=False)


Formula = Union[Top, Bot, Atom, And, Or, Imp, Forall, Exists]

TOP = Top()
BOT = Bot()


def neg(f: Formula) -> Formula:
    """Negation, desugared as an implication into bottom."""
    return Imp(f, BOT)


def is_quantifier_free(f: Formula) -> bool:
    return not any(type(g) in (Forall, Exists) for g in subformulas(f))


def connective_count(f: Formula) -> int:
    return sum(type(g) not in (Atom, Top, Bot) for g in subformulas(f))


# ---------------------------------------------------------------------------
# traversal core: every rewrite of atom arguments goes through map_terms, and
# every collector reads the nodes that _walk yields


def map_terms(f: Formula, fn: Callable[[Term, int], Term]) -> Formula:
    """f rebuilt with fn(term, depth) in place of each atom argument, where
    depth is the number of binders enclosing the atom."""

    def go(g: Formula, depth: int) -> Formula:
        k = type(g)
        if k is Atom:
            return Atom(g.pred, tuple(fn(a, depth) for a in g.args)) if g.args else g
        if k is And or k is Or or k is Imp:
            return k(go(g.left, depth), go(g.right, depth))
        if k is Forall or k is Exists:
            return k(go(g.body, depth + 1), g.hint)
        return g

    return go(f, 0)


_TERM_TYPES = frozenset((Var, Bound, Const, App, Meta))
_FORMULA_TYPES = frozenset((Top, Bot, Atom, And, Or, Imp, Forall, Exists))


def _walk(x, kinds: frozenset) -> Iterator:
    """The term and formula nodes in x whose type is one of kinds, each
    before its children.  x may be a term, a formula, a sequent, or an
    iterable of any of these.  Uses an explicit stack, so nesting depth
    costs no recursion."""
    stack = [x]
    while stack:
        y = stack.pop()
        k = type(y)
        if k in kinds:
            yield y
        if k is And or k is Or or k is Imp:
            stack.append(y.left)
            stack.append(y.right)
        elif k is Forall or k is Exists:
            stack.append(y.body)
        elif k is Atom or k is App:
            stack.extend(y.args)
        elif k is Sequent:
            stack.extend(y.ante)
            stack.extend(y.succ)
        elif k not in _TERM_TYPES and k not in _FORMULA_TYPES:
            stack.extend(y)


def subformulas(x) -> Iterator[Formula]:
    """Every subformula occurrence in x, each before its own subformulas.
    x may be a term, a formula, a sequent, or an iterable of any of these."""
    return _walk(x, _FORMULA_TYPES)


def subterms(x) -> Iterator[Term]:
    """Every subterm occurrence in x, each before its arguments: those of the
    atom arguments of its formulas, and of x itself where x holds terms."""
    return _walk(x, _TERM_TYPES)


# ---------------------------------------------------------------------------
# de Bruijn plumbing


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


def instantiate(q: Formula, t: Term) -> Formula:
    """Open a quantifier: the body with the bound variable replaced by t.

    t must be locally closed (no stray Bound indices of its own).
    """
    if not isinstance(q, (Forall, Exists)):
        raise TypeError(f"not a quantified formula: {q!r}")
    return map_terms(q.body, lambda a, depth: _replace_bound_term(a, depth, t))


def _abstract_term(t: Term, name: str, depth: int) -> Term:
    match t:
        case Var(n) if n == name:
            return Bound(depth)
        case App(fn, args):
            return App(fn, tuple(_abstract_term(a, name, depth) for a in args))
        case _:
            return t


def forall(name: str, f: Formula) -> Formula:
    """Bind every free Var(name) in f under a new universal quantifier."""
    return Forall(map_terms(f, lambda a, depth: _abstract_term(a, name, depth)), name)


def exists(name: str, f: Formula) -> Formula:
    """Bind every free Var(name) in f under a new existential quantifier."""
    return Exists(map_terms(f, lambda a, depth: _abstract_term(a, name, depth)), name)


# ---------------------------------------------------------------------------
# substitution over free named variables


def substitute_term(t: Term, name: str, repl: Term) -> Term:
    match t:
        case Var(n) if n == name:
            return repl
        case App(fn, args):
            return App(fn, tuple(substitute_term(a, name, repl) for a in args))
        case _:
            return t


def substitute(t: Term, name: str, f: Formula) -> Formula:
    """Replace every free Var(name) in f by t.

    Capture cannot occur: binders are nameless, so any binder in f leaves
    the replacement term untouched.
    """
    return map_terms(f, lambda a, _: substitute_term(a, name, t))


def rename_constant_term(t: Term, old: str, new: str) -> Term:
    match t:
        case Const(n) if n == old:
            return Const(new)
        case App(fn, args):
            args2 = tuple(rename_constant_term(a, old, new) for a in args)
            return App(new if fn == old else fn, args2)
        case _:
            return t


def rename_constant(f: Formula, old: str, new: str) -> Formula:
    """Rename a constant or function symbol everywhere in f."""
    return map_terms(f, lambda a, _: rename_constant_term(a, old, new))


# ---------------------------------------------------------------------------
# symbol collection


def free_symbols(x) -> frozenset[str]:
    """Constant, function, free-variable and metavariable names occurring in x.

    Predicate names and bound variables are not included.  x may be a term,
    a formula, a sequent, or an iterable of any of these.
    """
    return frozenset(t.name for t in subterms(x) if type(t) is not Bound)


def predicate_names(f: Formula) -> frozenset[str]:
    return frozenset(g.pred for g in subformulas(f) if type(g) is Atom)


def metas_in(x) -> frozenset[int]:
    """Idents of metavariables occurring in a term, formula, sequent or iterable."""
    return frozenset(t.ident for t in subterms(x) if type(t) is Meta)


def ground_subterms(x) -> frozenset[Term]:
    """All subterms of atom arguments in x that contain no Meta, Var or Bound."""
    ground: set[Term] = set()
    # the walk yields each term before its arguments, so reversed it meets
    # every argument of an application before the application itself
    for t in reversed(list(subterms(x))):
        if type(t) is Const or (type(t) is App and all(a in ground for a in t.args)):
            ground.add(t)
    return frozenset(ground)


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """base, or base followed by the first counter that avoids taken."""
    used = set(taken)
    if base not in used:
        return base
    i = 0
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# structural ordering


@functools.lru_cache(maxsize=None)
def term_key(t: Term) -> tuple:
    match t:
        case Bound(i):
            return (0, i)
        case Var(n):
            return (1, n)
        case Const(n):
            return (2, n)
        case Meta(i):
            return (3, i)
        case App(fn, args):
            return (4, fn, tuple(term_key(a) for a in args))
    raise TypeError(f"not a term: {t!r}")


@functools.lru_cache(maxsize=None)
def formula_key(f: Formula) -> tuple:
    """Total structural order on formulas; ignores binder display names."""
    match f:
        case Top():
            return (0,)
        case Bot():
            return (1,)
        case Atom(p, args):
            return (2, p, tuple(term_key(a) for a in args))
        case And(l, r):
            return (3, formula_key(l), formula_key(r))
        case Or(l, r):
            return (4, formula_key(l), formula_key(r))
        case Imp(l, r):
            return (5, formula_key(l), formula_key(r))
        case Forall(body=b):
            return (6, formula_key(b))
        case Exists(body=b):
            return (7, formula_key(b))
    raise TypeError(f"not a formula: {f!r}")


def term_size(t: Term) -> int:
    match t:
        case App(_, args):
            return 1 + sum(term_size(a) for a in args)
        case _:
            return 1


# ---------------------------------------------------------------------------
# sequents


@_cache_hashes
@dataclass(frozen=True)
class Sequent:
    """A multiset sequent.  Both sides are stored sorted, so == is multiset equality.

    The constructor sorts both sides.  Sequent._presorted, without_ante,
    without_succ and plus do not: they need sides already in the order
    sorted(key=formula_key) gives, as every Sequent's sides are, and keep
    that order (plus inserts each new member where sorted() would put it)."""

    ante: tuple[Formula, ...] = ()
    succ: tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ante", tuple(sorted(self.ante, key=formula_key)))
        object.__setattr__(self, "succ", tuple(sorted(self.succ, key=formula_key)))

    @classmethod
    def _presorted(cls, ante: tuple[Formula, ...], succ: tuple[Formula, ...]) -> "Sequent":
        """A sequent over sides that are already sorted by formula_key, in the
        order sorted() gives them; the sides are taken as they are."""
        s = object.__new__(cls)
        object.__setattr__(s, "ante", ante)
        object.__setattr__(s, "succ", succ)
        return s

    def plus(self, ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> "Sequent":
        return Sequent._presorted(_insorted(self.ante, ante), _insorted(self.succ, succ))

    def without_ante(self, index: int) -> "Sequent":
        return Sequent._presorted(self.ante[:index] + self.ante[index + 1 :], self.succ)

    def without_succ(self, index: int) -> "Sequent":
        return Sequent._presorted(self.ante, self.succ[:index] + self.succ[index + 1 :])

    def __str__(self) -> str:
        return format_sequent(self)

    def __repr__(self) -> str:
        return f"Sequent({format_sequent(self)!r})"


def _insorted(side: tuple[Formula, ...], new: Iterable[Formula]) -> tuple[Formula, ...]:
    """The sorted side with the new members added: each goes after every
    member with an equal key, which is where sorted() puts it after them."""
    out = None
    for f in new:
        if out is None:
            out = list(side)
        bisect.insort_right(out, f, key=formula_key)
    return side if out is None else tuple(out)


def multiset_minus(xs: tuple[Formula, ...], ys: Iterable[Formula]) -> tuple[Formula, ...] | None:
    """Remove one occurrence of each y from xs; None if some y is missing."""
    rest = list(xs)
    for y in ys:
        try:
            rest.remove(y)
        except ValueError:
            return None
    return tuple(rest)


def multiset_union(*parts: Iterable[Formula]) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for p in parts:
        out.extend(p)
    return tuple(sorted(out, key=formula_key))


# ---------------------------------------------------------------------------
# printing (parser-compatible concrete syntax)

_RESERVED = {"forall", "exists", "top", "bot"}
_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*")


def format_term(t: Term) -> str:
    match t:
        case Var(n):
            return n
        case Bound(i):
            return f"#{i}"  # only visible for ill-scoped fragments, never from the API
        case Const(n):
            return n
        case Meta():
            return t.name
        case App(fn, args):
            return f"{fn}({', '.join(format_term(a) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def _binder_names(f: Formula) -> frozenset[str]:
    """Names that a freshly chosen binder name must avoid inside f."""
    return free_symbols(f) | predicate_names(f) | _RESERVED


def _format(f: Formula, prec: int, avoid: set[str]) -> str:
    # precedence levels: 0 imp (right assoc), 1 or, 2 and, 3 unary/atom
    match f:
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Atom(p, args):
            if not args:
                return p
            return f"{p}({', '.join(format_term(a) for a in args)})"
        case Imp(l, r):
            s = f"{_format(l, 1, avoid)} => {_format(r, 0, avoid)}"
            return f"({s})" if prec > 0 else s
        case Or(l, r):
            # left-associative: chains print without parens on the left
            s = f"{_format(l, 1, avoid)} | {_format(r, 2, avoid)}"
            return f"({s})" if prec > 1 else s
        case And(l, r):
            s = f"{_format(l, 2, avoid)} & {_format(r, 3, avoid)}"
            return f"({s})" if prec > 2 else s
        case Forall(body=b, hint=h) | Exists(body=b, hint=h):
            kw = "forall" if isinstance(f, Forall) else "exists"
            base = h if _IDENT.fullmatch(h or "") and h not in _RESERVED else "x"
            name = fresh_name(base, avoid | _binder_names(b))
            opened = instantiate(f, Var(name))
            s = f"{kw} {name}. {_format(opened, 0, avoid | {name})}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Concrete syntax that the parser reads back to an equal formula."""
    return _format(f, 0, set())


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(f) for f in s.ante)
    right = ", ".join(format_formula(f) for f in s.succ)
    return f"{left} |- {right}".strip()
