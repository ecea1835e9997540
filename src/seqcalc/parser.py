"""Parser for formulas, sequents, and corpus files: two flat passes.

Concrete syntax, loosest to tightest binding:

    imp   := or ("=>" imp)?            right associative
    or    := and ("|" and)*            left associative
    and   := unary ("&" unary)*        left associative
    unary := "~" unary
           | "forall" ident "." imp
           | "exists" ident "." imp
           | atom
    atom  := "top" | "bot" | ident ("(" term ("," term)* ")")? | "(" imp ")"
    term  := ident ("(" term ("," term)* ")")?

`~A` is sugar for `A => bot`.  Identifiers are lowercase; variables exist
only under a binder, so an unbound identifier is a constant (or a predicate,
in formula position).  Capitalized identifiers are rejected: that spelling
is reserved for printed metavariables.  A sequent is written
`ante |- succ` with comma-separated, possibly empty sides.

The first pass is one regex findall over the source, which yields the token
texts, and one dict lookup per text for its kind; a source whose tokens and
spaces add up to its length is well formed without a further scan.  The
second is an operator-precedence (shunting-yard) loop over an operand stack
and an operator stack that holds the pending binary connectives, prefix `~`,
quantifier frames (each with its name on the binder list) and open
parentheses; argument lists are read by the same kind of loop over a stack
of open applications.  Neither pass recurses, so nesting depth is bounded by
memory only.  The passes build no position objects: a ParseError finds the
offending token's offsets by scanning the source again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice, repeat

from .syntax import (
    BOT,
    TOP,
    And,
    App,
    Atom,
    Bound,
    Const,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Sequent,
    Term,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan, source: str | None = None):
        self.message = message
        self.span = span
        self.source = source
        super().__init__(self._render())

    def _render(self) -> str:
        if self.source is None:
            return f"{self.message} (at offset {self.span.start})"
        line = self.source.count("\n", 0, self.span.start) + 1
        bol = self.source.rfind("\n", 0, self.span.start) + 1
        col = self.span.start - bol + 1
        return f"{self.message} (line {line}, column {col})"


# ---------------------------------------------------------------------------
# tokens

# every token; findall skips what matches none, so a source is well formed
# exactly when its tokens joined give its non-whitespace characters
_TOKEN = re.compile(r"[a-z][A-Za-z0-9_]*|\|-|=>|[(),.&|~]")
_SPACE = re.compile(r"\s*")
_CAPITALIZED = re.compile(r"[A-Z][A-Za-z0-9_]*")

# token kinds; the binary connectives are their own precedences, and every
# other kind an operator stack holds is below them
_IMP, _OR, _AND = 1, 2, 3
_BOTTOM, _LPAREN, _FORALL, _EXISTS, _TILDE = -1, -2, -3, -4, -5
_IDENT, _RPAREN, _COMMA, _DOT, _TURNSTILE, _TOP, _BOT, _EOF = 4, 5, 6, 7, 8, 9, 10, 11

_KIND = {
    "=>": _IMP,
    "|": _OR,
    "&": _AND,
    "(": _LPAREN,
    ")": _RPAREN,
    ",": _COMMA,
    ".": _DOT,
    "~": _TILDE,
    "|-": _TURNSTILE,
    "forall": _FORALL,
    "exists": _EXISTS,
    "top": _TOP,
    "bot": _BOT,
}

# a binary connective reduces the pending connectives on the operator stack
# at or above its threshold: its own precedence when it is left
# associative, one above it when it is right associative
_THRESHOLD = {_IMP: _IMP + 1, _OR: _OR, _AND: _AND}
_BINARY = {_IMP: Imp, _OR: Or, _AND: And}


def _tokens(source: str) -> tuple[list[str], list[int]]:
    """The token texts of source and their kinds, the kinds ending in _EOF.

    Tokens hold no whitespace and findall's matches are disjoint, so when
    the tokens' lengths and the spaces add up to the source's length every
    character is in a token or is a space, and the source is well formed;
    other whitespace takes the slower check."""
    texts = _TOKEN.findall(source)
    if sum(map(len, texts)) + source.count(" ") != len(source) and "".join(texts) != "".join(source.split()):
        raise _lexical_error(source)
    kinds = list(map(_KIND.get, texts, repeat(_IDENT)))
    kinds.append(_EOF)
    return texts, kinds


def _lexical_error(source: str) -> ParseError:
    """The error for the first character of source that starts no token."""
    pos = 0
    while True:
        pos = _SPACE.match(source, pos).end()
        m = _TOKEN.match(source, pos)
        if m is None:
            break
        pos = m.end()
    m = _CAPITALIZED.match(source, pos)
    if m is not None:
        return ParseError(
            f"capitalized identifier {m.group()!r} (that spelling is reserved for metavariables)",
            SourceSpan(m.start(), m.end()),
            source,
        )
    return ParseError(f"unexpected character {source[pos]!r}", SourceSpan(pos, pos + 1), source)


def _error(message: str, source: str, i: int) -> ParseError:
    """The error for token i (the end of input when i is past the last
    token), its span found by scanning source again."""
    m = next(islice(_TOKEN.finditer(source), i, None), None)
    span = SourceSpan(len(source), len(source)) if m is None else SourceSpan(m.start(), m.end())
    return ParseError(message, span, source)


def _expected(what: str, source: str, texts: list[str], i: int) -> ParseError:
    found = repr(texts[i]) if i < len(texts) else "end of input"
    return _error(f"expected {what}, found {found}", source, i)


# ---------------------------------------------------------------------------
# terms and formulas


def _arguments(
    source: str, texts: list[str], kinds: list[int], i: int, binders: list[str]
) -> tuple[tuple[Term, ...], int]:
    """The argument list whose "(" is token i, and the index after its ")"."""
    open_apps: list[tuple[str, list[Term]]] = []  # name and earlier arguments, innermost last
    args: list[Term] = []
    i += 1
    while True:
        if kinds[i] != _IDENT:
            raise _expected("a term", source, texts, i)
        name = texts[i]
        i += 1
        if kinds[i] == _LPAREN:
            if name in binders:
                raise _error(f"bound variable {name!r} cannot take arguments", source, i - 1)
            open_apps.append((name, args))
            args = []
            i += 1
            continue
        term = Bound(binders[::-1].index(name)) if name in binders else Const(name)
        while True:
            args.append(term)
            k = kinds[i]
            i += 1
            if k == _COMMA:
                break
            if k != _RPAREN:
                raise _expected("')'", source, texts, i - 1)
            if not open_apps:
                return tuple(args), i
            name, outer = open_apps.pop()
            term = App(name, args)
            args = outer


def _formula(source: str, texts: list[str], kinds: list[int], i: int, binders: list[str]) -> tuple[Formula, int]:
    """The formula that starts at token i, and the index of the first token
    after it: one that continues no formula (a ")" continues one only while
    a "(" is open)."""
    lefts: list[Formula] = []  # left operands of the pending connectives
    ops = [_BOTTOM]
    parens = 0
    while True:
        # an operand: prefix operators, then an atom, a unit or a "("
        k = kinds[i]
        if k == _IDENT:
            name = texts[i]
            if name in binders:
                raise _error(f"bound variable {name!r} used as a formula", source, i)
            if kinds[i + 1] == _LPAREN:
                args, i = _arguments(source, texts, kinds, i + 1, binders)
                f = Atom(name, args)
            else:
                f = Atom(name)
                i += 1
        elif k == _TILDE:
            ops.append(k)
            i += 1
            continue
        elif k == _LPAREN:
            ops.append(k)
            parens += 1
            i += 1
            continue
        elif k == _FORALL or k == _EXISTS:
            if kinds[i + 1] != _IDENT:
                raise _expected("a bound variable name", source, texts, i + 1)
            if kinds[i + 2] != _DOT:
                raise _expected("'.' after the bound variable", source, texts, i + 2)
            binders.append(texts[i + 1])
            ops.append(k)
            i += 3
            continue
        elif k == _TOP:
            f = TOP
            i += 1
        elif k == _BOT:
            f = BOT
            i += 1
        else:
            raise _expected("a formula", source, texts, i)
        # after an operand: apply the prefix "~"s, then close groups until a
        # connective continues the formula
        while True:
            op = ops[-1]
            while op == _TILDE:
                ops.pop()
                f = Imp(f, BOT)
                op = ops[-1]
            k = kinds[i]
            if k == _AND or k == _OR or k == _IMP:
                threshold = _THRESHOLD[k]
                while op >= threshold:
                    ops.pop()
                    f = _BINARY[op](lefts.pop(), f)
                    op = ops[-1]
                lefts.append(f)
                ops.append(k)
                i += 1
                break
            if k == _RPAREN and parens:
                parens -= 1
                i += 1
                stop = _LPAREN
            elif parens:
                raise _expected("')'", source, texts, i)
            else:
                stop = _BOTTOM
            op = ops.pop()
            while op != stop:
                if op > 0:
                    f = _BINARY[op](lefts.pop(), f)
                elif op == _TILDE:
                    f = Imp(f, BOT)
                else:
                    f = (Forall if op == _FORALL else Exists)(f, binders.pop())
                op = ops.pop()
            if stop == _BOTTOM:
                return f, i


# ---------------------------------------------------------------------------
# entry points


def parse_formula(source: str) -> Formula:
    texts, kinds = _tokens(source)
    f, i = _formula(source, texts, kinds, 0, [])
    if kinds[i] != _EOF:
        raise _expected("end of input", source, texts, i)
    return f


def parse_term(source: str) -> Term:
    texts, kinds = _tokens(source)
    if kinds[0] != _IDENT:
        raise _expected("a term", source, texts, 0)
    if kinds[1] == _LPAREN:
        args, i = _arguments(source, texts, kinds, 1, [])
        t = App(texts[0], args)
    else:
        t, i = Const(texts[0]), 1
    if kinds[i] != _EOF:
        raise _expected("end of input", source, texts, i)
    return t


def parse_sequent(source: str) -> Sequent:
    texts, kinds = _tokens(source)
    sides: tuple[list[Formula], list[Formula]] = ([], [])
    i = 0
    for side, end, what in ((sides[0], _TURNSTILE, "'|-'"), (sides[1], _EOF, "end of input")):
        if kinds[i] != end:
            while True:
                f, i = _formula(source, texts, kinds, i, [])
                side.append(f)
                if kinds[i] != _COMMA:
                    break
                i += 1
        if kinds[i] != end:
            raise _expected(what, source, texts, i)
        i += 1
    return Sequent(tuple(sides[0]), tuple(sides[1]))


# ---------------------------------------------------------------------------
# corpus files


@dataclass(frozen=True)
class CorpusEntry:
    """One benchmark line: a named sequent with expected verdicts per logic."""

    name: str
    sequent: Sequent
    classical: bool
    intuitionistic: bool
    uniform: bool
    line: int = 0

    def expected(self, logic: str) -> bool:
        try:
            return {"c": self.classical, "i": self.intuitionistic, "o": self.uniform}[logic]
        except KeyError:
            raise ValueError(f"unknown logic {logic!r}; expected 'c', 'i', or 'o'") from None


def _parse_verdict(field: str, start: int, key: str, source: str) -> bool:
    if field == f"{key}=yes":
        return True
    if field == f"{key}=no":
        return False
    raise ParseError(
        f"expected '{key}=yes' or '{key}=no', found {field!r}",
        SourceSpan(start, start + max(len(field), 1)),
        source,
    )


def parse_corpus(source: str) -> list[CorpusEntry]:
    """Parse a corpus file: `name ; sequent ; C=... ; I=... ; O=...` per line.

    Blank lines and lines starting with '#' are skipped; a trailing
    '# comment' on an entry line is allowed.  Errors name their line and
    column in the whole source.
    """
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    offset = 0
    for line_no, raw in enumerate(source.splitlines(keepends=True), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            parts = body.split(";")
            if len(parts) != 5:
                raise ParseError(
                    f"expected 5 ';'-separated fields, found {len(parts)}",
                    SourceSpan(offset, offset + len(raw)),
                    source,
                )
            # each field stripped, with the offset in source where its text starts
            fields, at = [], offset
            for part in parts:
                fields.append((part.strip(), at + len(part) - len(part.lstrip())))
                at += len(part) + 1
            name = fields[0][0]
            if not name:
                raise ParseError("empty entry name", SourceSpan(offset, offset + len(raw)), source)
            if name in seen:
                raise ParseError(f"duplicate entry name {name!r}", SourceSpan(offset, offset + len(raw)), source)
            seen.add(name)
            text, start = fields[1]
            try:
                sequent = parse_sequent(text)
            except ParseError as exc:
                raise ParseError(exc.message, SourceSpan(start + exc.span.start, start + exc.span.end), source) from exc
            entries.append(
                CorpusEntry(
                    name=name,
                    sequent=sequent,
                    classical=_parse_verdict(*fields[2], "C", source),
                    intuitionistic=_parse_verdict(*fields[3], "I", source),
                    uniform=_parse_verdict(*fields[4], "O", source),
                    line=line_no,
                )
            )
        offset += len(raw)
    return entries
