"""Core syntax: first-order terms, formulas, and multiset sequents.

Bound variables are stored as nameless (de Bruijn) indices; each binder keeps
a display-name hint that equality, hashing and ordering ignore, so
alpha-equivalent formulas compare equal.

Terms and formulas are hash-consed: every constructor looks its structure up
in one table of weak references, so building a structure that is alive
already, with the same binder hints, returns the existing object.  In front
of that table sits a bounded strong cache (Filliatre & Conchon, "Type-safe
modular hash-consing", 2006): a ring of the _RECENT_CAP nodes built last, so
the atoms and small subformulas that one call drops and the next call builds
again are found alive.  No node refers to itself or sits in a reference
cycle, so a node is freed, and its table entry dropped, as soon as the last
reference to it goes and it has left the ring.  Nodes are immutable.  At
construction each node also stores

* its sort key: a flat, prefix-free string built from its children's keys.
  Keys compare exactly as the structural tuples (kind, then the fields left
  to right, shorter argument lists first) would, ignore binder hints, and
  depend on the structure alone, never on the order in which nodes were
  built, so every process orders the same sequent the same way.  Two nodes
  have equal keys exactly when they are alpha-equivalent;
* its loose-bound range, _lbr: one past its highest loose de Bruijn
  index, 0 when it is closed.  Bound(i) has i + 1; an atom, application or
  binary connective the largest range of its parts (0 without any); a
  quantifier its body's range less one, at least 0.  So instantiate keeps
  each term whose range is at most its depth, and a quantifier of a closed
  formula is vacuous exactly when its body's range is 0;
* its metavariable flag, _mv: whether it holds a metavariable.  An
  application, atom, binary connective or quantifier stores it in a slot,
  True when one of its parts has it; a leaf has it as a class attribute,
  True on Meta and False on Var, Bound, Const, Top and Bot, so leaves are
  no larger.  The classical prover's grounding and unification, and the
  checker, read it to pass over meta-free parts without walking them;
* its quantifier-free flag, _qf: whether it holds no quantifier.  Only a
  binary connective stores it, in a slot, True when both its parts have
  it; every other kind has it as a class attribute, True on terms, atoms,
  top and bottom and False on quantifiers, so their nodes are no larger.
  So is_quantifier_free reads one attribute;
* its term size, _size: the number of term nodes in it.  An application
  stores it in a slot, one more than the sum of its arguments' sizes;
  every other node has 1 as a class attribute.  The ground engine orders
  its witness candidates by it.

The range, the flags and the size are computed from the children's at
construction, so a node nested deeper than the recursion limit gets them
without recursion.  Sets, such as a node's metavariables or ground
subterms, are not stored: metas_in and ground_subterms walk for them.
On CPython 3.11 (64-bit) an atom or quantifier node takes 80 bytes, in an
80-byte pymalloc block, and an application or binary connective 88, in a
96-byte block (scripts/proof_memory.py, its last line).

So ==, hash, formula_key and term_key all read the key, and none of them
recurses: alpha-variants are distinct objects with equal keys.  Binding,
opening and renaming are callbacks of one explicit-stack walk, map_terms,
so they do not recurse either.  The table may be shared by threads: an
insert is one dict.setdefault on a table key that hashes and compares in
C, so threads that build equal structures get one object, and a ring
append is one deque.append, which is atomic too.

Sequents keep both sides as multisets in a canonical sorted order (by
formula_key, stable), which makes multiset equality plain tuple equality.
The public Sequent constructor sorts; only the private Sequent._presorted
and the edits without_ante, replace_ante, replace_succ and plus skip that
sort, so they must be given sides that are already in that order.
"""

from __future__ import annotations

import bisect
import re
import weakref
from collections import deque
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Union

# ---------------------------------------------------------------------------
# interning


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node that keeps the node's table
    key, so the entry can be dropped when the node dies."""

    __slots__ = ("key",)


# table key -> entry; a table key holds the node's class, its names, numbers
# and hints, and the ids of its children (unique while the node holds them)
_TABLE: dict[tuple, _Ref] = {}
_set = object.__setattr__

#: the nodes the ring keeps alive: the last ones _build published.  On
#: prop-decide 1,024 gave the latency of 4,096 within 2 points at a quarter
#: of the memory (about 0.4 MB of nodes and table entries)
_RECENT_CAP = 1_024
_RECENT: deque = deque(maxlen=_RECENT_CAP)


def _drop(ref: _Ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    # remove deletes the entry only while it holds a dead reference: a
    # concurrent build may have replaced it with a live one
    remove(table, ref.key)


def _interned(ikey: tuple):
    ref = _TABLE.get(ikey)
    return None if ref is None else ref()


def _build(
    cls, ikey: tuple, values: tuple, key: str, lbr: int, mv: bool | None = None, qf: bool | None = None,
    size: int | None = None, keep=_RECENT.append,
):
    """A new node of cls with the given field values, sort key,
    loose-bound range and, for the kinds that store them, metavariable flag,
    quantifier-free flag and term size, entered under ikey and kept in the
    ring; the node another thread entered first, if any.  Every field is
    set before the node is published."""
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        _set(node, name, value)
    _set(node, "_key", key)
    _set(node, "_lbr", lbr)
    if mv is not None:
        _set(node, "_mv", mv)
    if qf is not None:
        _set(node, "_qf", qf)
    if size is not None:
        _set(node, "_size", size)
    ref = _Ref(node, _drop)
    ref.key = ikey
    while True:
        # one atomic step under the interpreter lock: a table key holds only
        # classes, strings and ints, which hash and compare in C
        got = _TABLE.setdefault(ikey, ref)
        if got is ref:
            keep(node)
            return node
        other = got()
        if other is not None:
            return other
        _remove_dead_weakref(_TABLE, ikey)


#: the entries a pure memo holds before _stored empties it
_MEMO_CAP = 4_096


def _stored(memo: dict, key, value):
    """Store value under key in memo, a pure memo, emptied first when it
    holds _MEMO_CAP entries; return value.  The searches' memos and the
    proof documents' text memos (calculus) are kept this way."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


# sort keys: each node kind has a one-character tag, names and integers
# have order-preserving, prefix-free encodings, and ")" closes an argument
# list (it sorts below every term tag, so a shorter list sorts first)
_END = ")"
_COMPLEMENT = str.maketrans("0123456789", "9876543210")


def _name_key(s: str) -> str:
    # NUL is escaped and a double NUL ends the name, so a name sorts
    # before every extension of it
    return s.replace("\0", "\0\1") + "\0\0"


def _int_key(n: int) -> str:
    # a length marker, then the digits; negatives sort below, the longest
    # first, with complemented digits
    digits = format(abs(n), "d")
    if n >= 0:
        return chr(0x80 + len(digits)) + digits
    return "\x7f" + chr(0x10FFFF - len(digits)) + digits.translate(_COMPLEMENT)


class _Node:
    """A hash-consed term or formula (see the module docstring)."""

    __slots__ = ("_key", "_lbr", "__weakref__")
    __match_args__: tuple[str, ...] = ()
    # the metavariable flag of every leaf but a metavariable; an atom,
    # application, binary connective or quantifier stores its own
    _mv = False
    # the quantifier-free flag of terms, atoms, top and bottom; a binary
    # connective stores its own, and a quantifier's is False
    _qf = True
    # the term size of a leaf (and, unread, of a formula); an application
    # stores its own
    _size = 1

    def __eq__(self, other):
        if isinstance(other, _Node):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: terms and formulas are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _leaf(cls, value, encode: Callable, lbr: int = 0) -> _Node:
    ikey = (cls, value)
    return _interned(ikey) or _build(cls, ikey, (value,), cls._tag + encode(value), lbr)


def _applied(cls, name: str, args) -> _Node:
    args = tuple(args)
    ikey = (cls, name, *map(id, args))
    node = _interned(ikey)
    if node is None:
        key = cls._tag + _name_key(name) + "".join([a._key for a in args]) + _END
        lbr = max([a._lbr for a in args], default=0)
        mv = True in [a._mv for a in args]
        size = 1 + sum([a._size for a in args]) if cls is App else None
        node = _build(cls, ikey, (name, args), key, lbr, mv, size=size)
    return node


# ---------------------------------------------------------------------------
# terms


class Var(_Node):
    """Free named variable.  Built programmatically; the parser never emits one."""

    __slots__ = __match_args__ = ("name",)
    _tag = "b"

    def __new__(cls, name: str) -> Var:
        return _leaf(cls, name, _name_key)


class Bound(_Node):
    """Occurrence of a bound variable, as the de Bruijn index of its binder."""

    __slots__ = __match_args__ = ("index",)
    _tag = "a"

    def __new__(cls, index: int) -> Bound:
        return _leaf(cls, index, _int_key, max(index + 1, 0))


class Const(_Node):
    __slots__ = __match_args__ = ("name",)
    _tag = "c"

    def __new__(cls, name: str) -> Const:
        return _leaf(cls, name, _name_key)


class App(_Node):
    __slots__ = ("name", "args", "_mv", "_size")
    __match_args__ = ("name", "args")
    _tag = "e"

    def __new__(cls, name: str, args: Iterable[Term]) -> App:
        return _applied(cls, name, args)


class Meta(_Node):
    """Unification placeholder used by the classical prover.  Prints as X<ident>."""

    __slots__ = __match_args__ = ("ident",)
    _tag = "d"
    _mv = True

    def __new__(cls, ident: int) -> Meta:
        return _leaf(cls, ident, _int_key)

    @property
    def name(self) -> str:
        return f"X{self.ident}"


Term = Union[Var, Bound, Const, App, Meta]

# ---------------------------------------------------------------------------
# formulas


class _Unit(_Node):
    __slots__ = ()

    def __new__(cls):
        return _interned((cls,)) or _build(cls, (cls,), (), cls._tag, 0)


class Top(_Unit):
    __slots__ = ()
    _tag = "0"


class Bot(_Unit):
    __slots__ = ()
    _tag = "1"


class Atom(_Node):
    __slots__ = ("pred", "args", "_mv")
    __match_args__ = ("pred", "args")
    _tag = "2"

    def __new__(cls, pred: str, args: Iterable[Term] = ()) -> Atom:
        return _applied(cls, pred, args)


class _Binary(_Node):
    __slots__ = ("left", "right", "_mv", "_qf")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        ikey = (cls, id(left), id(right))
        node = _interned(ikey)
        if node is None:
            key = cls._tag + left._key + right._key
            lbr = max(left._lbr, right._lbr)
            node = _build(cls, ikey, (left, right), key, lbr, left._mv or right._mv, left._qf and right._qf)
        return node


class And(_Binary):
    __slots__ = ()
    _tag = "3"


class Or(_Binary):
    __slots__ = ()
    _tag = "4"


class Imp(_Binary):
    __slots__ = ()
    _tag = "5"


class _Quantifier(_Node):
    __slots__ = ("body", "hint", "_mv")
    __match_args__ = ("body", "hint")
    _qf = False

    def __new__(cls, body: Formula, hint: str = "x"):
        ikey = (cls, id(body), hint)
        node = _interned(ikey)
        if node is None:
            node = _build(cls, ikey, (body, hint), cls._tag + body._key, max(body._lbr - 1, 0), body._mv)
        return node


class Forall(_Quantifier):
    __slots__ = ()
    _tag = "6"


class Exists(_Quantifier):
    __slots__ = ()
    _tag = "7"


Formula = Union[Top, Bot, Atom, And, Or, Imp, Forall, Exists]

TOP = Top()
BOT = Bot()


def neg(f: Formula) -> Formula:
    """Negation, desugared as an implication into bottom."""
    return Imp(f, BOT)


def is_quantifier_free(f: Formula) -> bool:
    """Whether f has no quantifier: f's flag, set when f was built."""
    return f._qf


# ---------------------------------------------------------------------------
# traversal core: every rewrite of terms goes through map_terms, and every
# collector reads the nodes that _walk yields

_TERM_TYPES = frozenset((Var, Bound, Const, App, Meta))
_FORMULA_TYPES = frozenset((Top, Bot, Atom, And, Or, Imp, Forall, Exists))


def map_terms(x: Formula | Term, fn: Callable[[Term, int], Term | str | None]) -> Formula | Term:
    """x, a formula or a term, with fn(term, depth) applied to x itself or
    to each atom argument, under depth binders.  fn returns the term's
    replacement; or None to map the term's arguments by fn and rebuild it;
    or, for an application, a name to do so under that name.  A node whose
    parts all come back as they were is kept, so a rewrite that changes
    nothing returns x.  Walks an explicit stack, so nesting depth costs no
    recursion."""
    done: list = []
    # (node, depth) pairs to map, and (node, marker) pairs to rebuild a node
    # from its mapped parts, the last entries of done: the marker is None or
    # the name an atom or application is rebuilt under
    stack: list = [x, 0]
    while stack:
        depth = stack.pop()
        x = stack.pop()
        k = type(x)
        if k is And or k is Or or k is Imp:
            if type(depth) is int:
                stack += (x, None, x.right, depth, x.left, depth)
            else:
                right = done.pop()
                done[-1] = x if done[-1] is x.left and right is x.right else k(done[-1], right)
        elif k is Forall or k is Exists:
            if type(depth) is int:
                stack += (x, None, x.body, depth + 1)
            else:
                done[-1] = x if done[-1] is x.body else k(done[-1], x.hint)
        elif type(depth) is not int:
            n = len(x.args)
            args = tuple(done[-n:])
            done[-n:] = (x if args == x.args and depth == (x.pred if k is Atom else x.name) else k(depth, args),)
        else:
            name = x.pred if k is Atom else None if k is Top or k is Bot else fn(x, depth)
            if name is None and k is App:
                name = x.name
            if type(name) is not str:
                done.append(x if name is None else name)
            elif not x.args:
                done.append(x if k is Atom else App(name, ()))
            else:
                stack += (x, name)
                for a in reversed(x.args):
                    stack += (a, depth)
    return done[0]


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
# binding and opening: map_terms callbacks


def instantiate(q: Formula, t: Term) -> Formula:
    """Open a quantifier: the body with the bound variable replaced by t.

    t must be locally closed (no stray Bound indices of its own).  A term
    whose loose-bound range is at most its depth is kept as it is.
    """
    if not isinstance(q, (Forall, Exists)):
        raise TypeError(f"not a quantified formula: {q!r}")
    if not q.body._lbr:
        return q.body

    def opened(a: Term, depth: int) -> Term | None:
        if a._lbr <= depth:
            return a
        if type(a) is Bound:
            return t if a.index == depth else Bound(a.index - 1)
        return None

    return map_terms(q.body, opened)


def _replacing(name: str) -> Callable[[Term, int], Term | None]:
    """The map_terms callback that replaces Var(name) by the index of a
    binder about to enclose the formula."""

    def replaced(a: Term, depth: int) -> Term | None:
        k = type(a)
        if k is Var and a.name == name:
            return Bound(depth)
        return None if k is App else a

    return replaced


def forall(name: str, f: Formula) -> Formula:
    """Bind every free Var(name) in f under a new universal quantifier."""
    return Forall(map_terms(f, _replacing(name)), name)


def exists(name: str, f: Formula) -> Formula:
    """Bind every free Var(name) in f under a new existential quantifier."""
    return Exists(map_terms(f, _replacing(name)), name)


def rename_constant(x: Formula | Term, names: dict[str, str]) -> Formula | Term:
    """Rename each constant or function symbol that names maps, everywhere
    in x, a formula or a term, to the name it maps to: all at once, so a
    name renamed and a name renamed to are never confused."""
    get = names.get

    def renamed(a: Term, _: int) -> Term | str | None:
        k = type(a)
        if k is App:
            return get(a.name)
        return Const(names[a.name]) if k is Const and a.name in names else a

    return map_terms(x, renamed)


# ---------------------------------------------------------------------------
# symbol collection


def free_symbols(x) -> frozenset[str]:
    """Constant, function, free-variable and metavariable names occurring in x.

    Predicate names and bound variables are not included.  x may be a term,
    a formula, a sequent, or an iterable of any of these.
    """
    return frozenset(t.name for t in subterms(x) if type(t) is not Bound)


def predicate_names(x) -> frozenset[str]:
    return frozenset(g.pred for g in subformulas(x) if type(g) is Atom)


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

_KEY = attrgetter("_key")


def term_key(t: Term) -> str:
    """Total structural order on terms: the flat key stored at construction."""
    if type(t) not in _TERM_TYPES:
        raise TypeError(f"not a term: {t!r}")
    return t._key


def formula_key(f: Formula) -> str:
    """Total structural order on formulas: the flat key stored at
    construction, which ignores binder display names."""
    if type(f) not in _FORMULA_TYPES:
        raise TypeError(f"not a formula: {f!r}")
    return f._key


# ---------------------------------------------------------------------------
# sequents


class Sequent:
    """A multiset sequent.  Both sides are stored sorted, so == is multiset equality.

    Members are interned formulas, kept as the objects they were built as,
    so each keeps its own binder hints.  The sides are sorted, stably, by
    formula_key, which reads the key stored on each member and orders
    alpha-variants as equal; so two sequents compare equal exactly when
    their members do, pairwise, and == costs one identity test per member
    (a key comparison where the members are distinct objects) and hash one
    cached string hash per member.  Sequents themselves are not interned.

    A sequent is immutable: its two slots are set once, at construction,
    and assigning or deleting an attribute raises AttributeError.

    The constructor sorts both sides.  Sequent._presorted, without_ante,
    replace_ante, replace_succ and plus do not: they need sides already in
    the order sorted(key=formula_key) gives, as every Sequent's sides are,
    and keep that order (plus and replace_* insert each new member where
    sorted() would put it)."""

    __slots__ = ("ante", "succ")
    __match_args__ = ("ante", "succ")
    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def __init__(self, ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> None:
        _set_ante(self, tuple(sorted(ante, key=_KEY)))
        _set_succ(self, tuple(sorted(succ, key=_KEY)))

    @classmethod
    def _presorted(cls, ante: tuple[Formula, ...], succ: tuple[Formula, ...]) -> "Sequent":
        """A sequent over sides that are already sorted by formula_key, in the
        order sorted() gives them; the sides are taken as they are."""
        s = _new(cls)
        _set_ante(s, ante)
        _set_succ(s, succ)
        return s

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: sequents are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is type(self):
            return self.ante == other.ante and self.succ == other.succ
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ante, self.succ))

    def __reduce__(self):
        # the sides are sorted already, and sorting them again keeps them
        return Sequent, (self.ante, self.succ)

    def plus(self, ante: Iterable[Formula] = (), succ: Iterable[Formula] = ()) -> "Sequent":
        return Sequent._presorted(_insorted(self.ante, ante), _insorted(self.succ, succ))

    def replace_ante(self, index: int, new: Iterable[Formula]) -> "Sequent":
        """without_ante(index).plus(ante=new), building one sequent."""
        return Sequent._presorted(_insorted(self.ante[:index] + self.ante[index + 1 :], new), self.succ)

    def replace_succ(self, index: int, new: Iterable[Formula]) -> "Sequent":
        """The sequent with succ[index] replaced by the new members."""
        return Sequent._presorted(self.ante, _insorted(self.succ[:index] + self.succ[index + 1 :], new))

    def without_ante(self, index: int) -> "Sequent":
        return Sequent._presorted(self.ante[:index] + self.ante[index + 1 :], self.succ)

    def __str__(self) -> str:
        return format_sequent(self)

    def __repr__(self) -> str:
        return f"Sequent({format_sequent(self)!r})"


_new = object.__new__
_set_ante = Sequent.ante.__set__
_set_succ = Sequent.succ.__set__


def _insorted(side: tuple[Formula, ...], new: Iterable[Formula]) -> tuple[Formula, ...]:
    """The sorted side with the new members added: each goes after every
    member with an equal key, which is where sorted() puts it after them."""
    out = None
    for f in new:
        if out is None:
            out = list(side)
        bisect.insort_right(out, f, key=_KEY)
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


# ---------------------------------------------------------------------------
# printing (parser-compatible concrete syntax)

_RESERVED = {"forall", "exists", "top", "bot"}
_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*")


def format_term(t: Term) -> str:
    if type(t) not in _TERM_TYPES:
        raise TypeError(f"not a term: {t!r}")
    return _format(t)


def _body_names(f: Formula) -> dict[int, frozenset[str]]:
    """The free symbols and predicate names of the body of every quantifier
    in f, keyed by the body's id: the names a binder over that body must
    avoid, besides the keywords and the enclosing binders' names.  One pass
    on an explicit stack: an atom's names go to its innermost enclosing
    body, and a body's names, once its end (its id) is popped, to the next
    body out.  A body met again is not walked again."""
    below: dict[int, frozenset[str]] = {}
    accs: list[set[str]] = [set()]
    stack: list = [f]
    while stack:
        g = stack.pop()
        k = type(g)
        if k is int:
            below[g] = names = frozenset(accs.pop())
            accs[-1] |= names
        elif k is And or k is Or or k is Imp:
            stack.append(g.left)
            stack.append(g.right)
        elif k is Forall or k is Exists:
            names = below.get(id(g.body))
            if names is None:
                accs.append(set())
                stack.append(id(g.body))
                stack.append(g.body)
            else:
                accs[-1] |= names
        elif k is Atom:
            accs[-1] |= free_symbols(g)
            accs[-1].add(g.pred)
    return below


def _candidate(base: str, i: int) -> str:
    """The i-th name fresh_name tries for base: base, then base0, base1, ..."""
    return base if i == 0 else f"{base}{i - 1}"


# per binary connective: its text, the highest context precedence it prints
# in without parentheses, and the precedences of its operands.  Levels: 0 imp
# (right associative), 1 or, 2 and (both left associative), 3 unary/atom
_INFIX = {
    Imp: (" => ", 0, 1, 0),
    Or: (" | ", 1, 1, 2),
    And: (" & ", 2, 2, 3),
}


def _format(item) -> str:
    """The text of item, a term or a (formula, precedence) pair, printed by
    walking an explicit stack.  The stack holds the texts still to emit,
    the terms and (formula, precedence) pairs still to print, and a None
    where a binder's scope ends.  names holds the binder names in scope,
    innermost last, so Bound(i) prints as the i-th from the end; they are
    distinct, and scope holds them as a set.

    A binder's name is fresh_name(base, body | keywords | scope), found
    without building that union: below gives each binder the names of its
    body, computed at the first binder, and skip gives per base how many of
    its first candidates are known to be in scope, so the search starts
    after them.  opened keeps, per binder in scope, its base and the skip
    it found, restored where its scope ends; so nested binders that share
    a hint cost time linear in their number."""
    out: list[str] = []
    names: list[str] = []
    scope: set[str] = set()
    opened: list[tuple[str, int]] = []
    skip: dict[str, int] = {}
    below = None
    stack = [item]
    while stack:
        x = stack.pop()
        k = type(x)
        if k is str:
            out.append(x)
        elif k is tuple:
            f, prec = x
            k = type(f)
            if k is Atom:
                if f.args:
                    out.append(f.pred + "(")
                    _push_args(stack, f.args)
                else:
                    out.append(f.pred)
            elif k in _INFIX:
                op, limit, lp, rp = _INFIX[k]
                if prec > limit:
                    out.append("(")
                    stack.append(")")
                stack += ((f.right, rp), op, (f.left, lp))
            elif k is Forall or k is Exists:
                hint = f.hint
                base = hint if _IDENT.fullmatch(hint or "") and hint not in _RESERVED else "x"
                if below is None:
                    below = _body_names(item[0])
                body = below[id(f.body)]
                start = i = skip.get(base, 0)
                name = _candidate(base, i)
                while name in body or name in scope or name in _RESERVED:
                    i += 1
                    name = _candidate(base, i)
                names.append(name)
                scope.add(name)
                opened.append((base, start))
                while _candidate(base, start) in scope:
                    start += 1
                skip[base] = start
                if prec > 0:
                    out.append("(")
                    stack.append(")")
                out.append(("forall " if k is Forall else "exists ") + name + ". ")
                stack += (None, (f.body, 0))
            elif k is Top:
                out.append("top")
            elif k is Bot:
                out.append("bot")
            else:
                raise TypeError(f"not a formula: {f!r}")
        elif x is None:
            scope.remove(names.pop())
            base, start = opened.pop()
            skip[base] = start
        elif k is Const or k is Var or k is Meta:
            out.append(x.name)
        elif k is App:
            out.append(x.name + "(")
            _push_args(stack, x.args)
        elif k is Bound:
            # the name of the i-th enclosing binder; an index past them all
            # prints as it would after opening each of them
            i, n = x.index, len(names)
            out.append(names[~i] if 0 <= i < n else f"#{i - n if i >= n else i}")
        else:
            raise TypeError(f"not a term: {x!r}")
    return "".join(out)


def _push_args(stack: list, args: tuple) -> None:
    """Push an argument list's texts and terms, its ")" first."""
    stack.append(")")
    for a in reversed(args[1:]):
        stack.append(a)
        stack.append(", ")
    if args:
        stack.append(args[0])


def format_formula(f: Formula) -> str:
    """Concrete syntax that the parser reads back to an equal formula.

    Parentheses appear only where precedence or associativity needs them.
    A binder prints with its hint, or with the first fresh variant of it (or
    of "x", where the hint is no usable identifier) that avoids the names
    of the enclosing binders, the keywords and the symbols of its body.
    Printing walks an explicit stack, so nesting depth costs no recursion."""
    return _format((f, 0))


def format_sequent(s: Sequent) -> str:
    left = ", ".join(format_formula(f) for f in s.ante)
    right = ", ".join(format_formula(f) for f in s.succ)
    return f"{left} |- {right}".strip()
