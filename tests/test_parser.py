"""Concrete syntax: precedence, binding scope, errors, corpus lines, and the
stack parser against the recursive-descent reference."""

import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcalc import parser
from seqcalc.calculus import INTUITIONISTIC, Proof, RuleId, dump_proof, load_proof
from seqcalc.parser import (
    ParseError,
    parse_corpus,
    parse_formula,
    parse_sequent,
    parse_term,
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
    Formula,
    Imp,
    Or,
    Sequent,
    Term,
    Top,
    format_formula,
    format_sequent,
    neg,
)

from _oracles import (
    mixed_leaves,
    random_fragment_sequent,
    random_horn_sequent,
    random_in_grammar,
    random_propositional_sequent,
    reference_parse_formula,
    reference_parse_sequent,
    reference_parse_term,
)


# ---------------------------------------------------------------------------
# terms and atoms


def test_parse_term_nested_application():
    assert parse_term("f(a, g(b))") == App("f", (Const("a"), App("g", (Const("b"),))))


def test_parse_bare_constant():
    assert parse_term("a") == Const("a")


def test_atom_with_and_without_args():
    assert parse_formula("q") == Atom("q")
    assert parse_formula("r(a, b)") == Atom("r", (Const("a"), Const("b")))


def test_units():
    assert parse_formula("top") == Top()
    assert parse_formula("bot") == Bot()


# ---------------------------------------------------------------------------
# precedence and associativity


def test_and_binds_tighter_than_or():
    assert parse_formula("p & q | s") == Or(And(Atom("p"), Atom("q")), Atom("s"))


def test_or_binds_tighter_than_imp():
    f = parse_formula("p & q | s => t")
    assert f == Imp(Or(And(Atom("p"), Atom("q")), Atom("s")), Atom("t"))


def test_imp_is_right_associative():
    assert parse_formula("p => q => s") == Imp(Atom("p"), Imp(Atom("q"), Atom("s")))


def test_parentheses_override():
    assert parse_formula("(p => q) => s") == Imp(Imp(Atom("p"), Atom("q")), Atom("s"))
    assert parse_formula("p & (q | s)") == And(Atom("p"), Or(Atom("q"), Atom("s")))


# ---------------------------------------------------------------------------
# quantifiers


def test_quantifier_body_extends_maximally():
    f = parse_formula("forall x. p(x) & q")
    assert f == Forall(And(Atom("p", (Bound(0),)), Atom("q")))


def test_nested_quantifiers_index_by_distance():
    f = parse_formula("forall x. exists y. r(x, y)")
    assert f == Forall(Exists(Atom("r", (Bound(1), Bound(0)))))


def test_same_name_shadowing():
    f = parse_formula("forall x. p(x) & forall x. q(x)")
    assert f == Forall(And(Atom("p", (Bound(0),)), Forall(Atom("q", (Bound(0),)))))


def test_unbound_name_is_a_constant():
    assert parse_formula("p(a)") == Atom("p", (Const("a"),))


def test_negation_of_a_quantifier_wraps_the_whole_quantifier():
    f = parse_formula("~forall x. p(x)")
    assert f is Imp(Forall(Atom("p", (Bound(0),))), Bot())


# ---------------------------------------------------------------------------
# sequents


def test_sequent_sides():
    s = parse_sequent("p, q |- s, t")
    assert sorted(f.pred for f in s.ante) == ["p", "q"]
    assert [f.pred for f in s.succ] == ["s", "t"]


def test_empty_sides():
    assert parse_sequent("|- p") == Sequent((), (Atom("p"),))
    assert parse_sequent("p |-") == Sequent((Atom("p"),), ())


def test_duplicate_members_kept():
    assert len(parse_sequent("p, p |- q").ante) == 2


# ---------------------------------------------------------------------------
# errors carry positions


@pytest.mark.parametrize(
    "bad",
    ["p &", "forall . p", "(p", "p(", "p q", "", "p |- q"],
)
def test_formula_errors(bad):
    with pytest.raises(ParseError) as exc:
        parse_formula(bad)
    assert "line 1" in str(exc.value)


def test_capitalized_identifier_rejected():
    with pytest.raises(ParseError, match="metavariable"):
        parse_formula("Pq")


def test_sequent_needs_one_turnstile():
    with pytest.raises(ParseError):
        parse_sequent("p, q")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- s")


def test_error_column_points_at_offender():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & & q")
    assert "column 5" in str(exc.value)


# ---------------------------------------------------------------------------
# corpus format


CORPUS_SAMPLE = """\
# comment lines and blanks are skipped

alpha ; p & q |- p ; C=yes ; I=yes ; O=yes
beta  ; |- p | (p => bot) ; C=yes ; I=no ; O=no
"""


def test_parse_corpus_entries():
    entries = parse_corpus(CORPUS_SAMPLE)
    assert [e.name for e in entries] == ["alpha", "beta"]
    e = entries[0]
    assert e.sequent == parse_sequent("p & q |- p")
    assert e.classical and e.intuitionistic and e.uniform
    assert entries[1].line == 4


def test_corpus_expected_accessor():
    e = parse_corpus(CORPUS_SAMPLE)[1]
    assert e.expected("c") is True
    assert e.expected("i") is False
    assert e.expected("o") is False
    with pytest.raises(ValueError):
        e.expected("x")


def test_corpus_rejects_malformed_rows():
    with pytest.raises(ParseError):
        parse_corpus("gamma ; p |- p ; C=yes ; I=yes")
    with pytest.raises(ParseError):
        parse_corpus("gamma ; p |- p ; C=maybe ; I=yes ; O=no")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ok ; p |- p ; C=yes ; I=yes ; O=yes\nbad ;   p |- q & ; C=yes ; I=yes ; O=yes",
            "expected a formula, found end of input (line 2, column 17)",
        ),
        (
            "ok ; p |- p ; C=yes ; I=maybe ; O=yes",
            "expected 'I=yes' or 'I=no', found 'I=maybe' (line 1, column 23)",
        ),
        (
            "ok ; p |- p ; C=yes ; I=yes ; O=yes\r\n\r\nok2 ; p |- p ; C=yes ; I=maybe ; O=yes",
            "expected 'I=yes' or 'I=no', found 'I=maybe' (line 3, column 24)",
        ),
    ],
)
def test_corpus_errors_name_their_place_in_the_whole_source(text, message):
    with pytest.raises(ParseError) as exc:
        parse_corpus(text)
    assert str(exc.value) == message


def test_corpus_empty_names_rejected():
    with pytest.raises(ParseError) as exc:
        parse_corpus("ok ; p |- p ; C=yes ; I=yes ; O=yes\n ; q |- q ; C=yes ; I=yes ; O=yes")
    assert str(exc.value) == "empty entry name (line 2, column 1)"


def test_an_error_without_its_source_names_the_offset():
    err = ParseError("expected a formula", parser.SourceSpan(7, 9))
    assert str(err) == "expected a formula (at offset 7)"


def test_corpus_duplicate_names_rejected():
    text = "a ; p |- p ; C=yes ; I=yes ; O=yes\na ; q |- q ; C=yes ; I=yes ; O=yes"
    with pytest.raises(ParseError):
        parse_corpus(text)


def test_shipped_corpus_loads(corpus):
    assert len(corpus) >= 30
    names = [e.name for e in corpus]
    assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# the stack parser against the recursive-descent reference

_HINTS = ("x", "y", "z", "x0", "p", "a", "f", "q1")
_MUTANTS = ("(", ")", ",", ".", "&", "|", "~", "=>", "|-", "A", "$", "forall", "exists", "top", "bot", "x")
_PIECE = re.compile(r"\s+|[A-Za-z_][A-Za-z0-9_]*|\|-|=>|.", re.DOTALL)


def _nested_term(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.4:
        return Const(rng.choice("abc"))
    return App(rng.choice("fg"), tuple(_nested_term(rng, depth - 1) for _ in range(rng.randrange(1, 3))))


def _varied(rng: random.Random, f: Formula) -> Formula:
    """f with random binder hints and each constant a replaced by a random
    nested term."""
    k = type(f)
    if k is Atom:
        return Atom(f.pred, tuple(_nested_term(rng, 3) if a == Const("a") else a for a in f.args))
    if k in (And, Or, Imp):
        return k(_varied(rng, f.left), _varied(rng, f.right))
    if k in (Forall, Exists):
        return k(_varied(rng, f.body), rng.choice(_HINTS))
    return f


def _random_text(rng: random.Random) -> tuple[str, int]:
    """The printed text of a random formula or sequent from the generators,
    and the index in _ENTRY_POINTS of the parsers for it."""
    kind = rng.randrange(4)
    if kind == 0:
        fragment = rng.choice(("f1", "f2", "f3", "f4", "lp-int", "lp-cls"))
        role = rng.choice(("goal", "clause"))
        f = random_in_grammar(rng, fragment, role, rng.randrange(7), mixed_leaves())
        return format_formula(_varied(rng, f)), 0
    if kind == 1:
        s = random_fragment_sequent(rng, rng.choice(("f1", "f2", "f3", "f4")), rng.randrange(3), 3, 3)
    elif kind == 2:
        s = random_horn_sequent(rng)
    else:
        s = random_propositional_sequent(rng, 8)
    return format_sequent(Sequent(tuple(_varied(rng, f) for f in s.ante), tuple(_varied(rng, f) for f in s.succ))), 1


def _mutated(rng: random.Random, text: str) -> str:
    """text with one token or character deleted, duplicated or replaced."""
    pieces = _PIECE.findall(text) if rng.random() < 0.5 else list(text)
    i = rng.randrange(len(pieces))
    how = rng.randrange(3)
    if how == 0:
        del pieces[i]
    elif how == 1:
        pieces.insert(i, pieces[i])
    else:
        pieces[i] = rng.choice(_MUTANTS)
    return "".join(pieces)


_ENTRY_POINTS = (
    (parse_formula, reference_parse_formula),
    (parse_sequent, reference_parse_sequent),
    (parse_term, reference_parse_term),
)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return exc


def _same_outcome(got, want) -> bool:
    """Errors with equal message, span and text; the same formula or term
    object; sequents whose members are the same objects in the same order."""
    if isinstance(want, ParseError):
        return isinstance(got, ParseError) and (got.message, got.span, str(got)) == (want.message, want.span, str(want))
    if isinstance(want, Sequent):
        return (
            isinstance(got, Sequent)
            and len(got.ante) == len(want.ante)
            and len(got.succ) == len(want.succ)
            and all(a is b for a, b in zip(got.ante + got.succ, want.ante + want.succ))
        )
    return got is want


@settings(max_examples=500)
@given(st.integers(0, 2**32))
def test_valid_texts_parse_to_the_reference_objects(seed):
    text, own = _random_text(random.Random(seed))
    for parse, reference in _ENTRY_POINTS:
        want = _outcome(reference, text)
        assert _same_outcome(_outcome(parse, text), want), (parse.__name__, text)
    assert not isinstance(_outcome(_ENTRY_POINTS[own][0], text), ParseError)


@settings(max_examples=500)
@given(st.integers(0, 2**32))
def test_mutated_texts_fail_as_the_reference_does(seed):
    rng = random.Random(seed)
    text, own = _random_text(rng)
    text = _mutated(rng, text)
    wants = [_outcome(reference, text) for _, reference in _ENTRY_POINTS]
    for (parse, _), want in zip(_ENTRY_POINTS, wants):
        assert _same_outcome(_outcome(parse, text), want), (parse.__name__, text)
    # count only the texts that their own parser now rejects
    assume(isinstance(wants[own], ParseError))


def _joined_tokens(source: str):
    """The tokenizer without its fast path: a source is well formed when
    its tokens joined give its non-whitespace characters."""
    texts = parser._TOKEN.findall(source)
    if "".join(texts) != "".join(source.split()):
        raise parser._lexical_error(source)
    return texts, [parser._KIND.get(t, parser._IDENT) for t in texts] + [parser._EOF]


_PIECES = ["p", "q", "r", "a", "f", "x", "top", "bot", "forall", "exists", "|-", "=>", "(", ")", ","]
_PIECES += [".", "&", "|", "~", " ", "  ", "\t", "\n", "=", "-", ">", "P", "Xy"]


@settings(max_examples=500)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join), st.integers(0, 2**32)))
def test_the_lexical_fast_path_accepts_and_rejects_as_the_joined_check(drawn):
    if isinstance(drawn, int):
        # a well-formed text, its spaces turned into other whitespace
        rng = random.Random(drawn)
        text = "".join(rng.choice((" ", " ", "\t", "\n", "  ")) if c == " " else c for c in _random_text(rng)[0])
    else:
        text = drawn
    for parse, _ in _ENTRY_POINTS:
        with mock.patch("seqcalc.parser._tokens", _joined_tokens):
            want = _outcome(parse, text)
        assert _same_outcome(_outcome(parse, text), want), (parse.__name__, text)


@pytest.mark.parametrize(
    "parse,text,message,span",
    [
        (parse_formula, "p &", "expected a formula, found end of input", (3, 3)),
        (parse_formula, "p & )", "expected a formula, found ')'", (4, 5)),
        (parse_formula, "(p q", "expected ')', found 'q'", (3, 4)),
        (parse_formula, "p(a b)", "expected ')', found 'b'", (4, 5)),
        (parse_sequent, "p q |- r", "expected '|-', found 'q'", (2, 3)),
        (parse_formula, "p q", "expected end of input, found 'q'", (2, 3)),
        (parse_sequent, "p |- q |- r", "expected end of input, found '|-'", (7, 9)),
        (parse_term, "f(a) b", "expected end of input, found 'b'", (5, 6)),
        (parse_formula, "p(top)", "expected a term, found 'top'", (2, 5)),
        (parse_formula, "forall . p", "expected a bound variable name, found '.'", (7, 8)),
        (parse_formula, "exists x p", "expected '.' after the bound variable, found 'p'", (9, 10)),
        (parse_formula, "forall x. q & x", "bound variable 'x' used as a formula", (14, 15)),
        (parse_formula, "forall x. p(f(x(a)))", "bound variable 'x' cannot take arguments", (14, 15)),
        (parse_formula, "p &\n Qr", "capitalized identifier 'Qr' (that spelling is reserved for metavariables)", (5, 7)),
        (parse_sequent, "p |- q $", "unexpected character '$'", (7, 8)),
    ],
)
def test_each_error_message_is_pinned(parse, text, message, span):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert (err.message, (err.span.start, err.span.end)) == (message, span)
    line = text.count("\n", 0, span[0]) + 1
    column = span[0] - (text.rfind("\n", 0, span[0]) + 1) + 1
    assert str(err) == f"{message} (line {line}, column {column})"
    assert _same_outcome(err, _outcome(dict(_ENTRY_POINTS)[parse], text))


# ---------------------------------------------------------------------------
# deep inputs at the default recursion limit

_DEEP = 2000


def _deep_and_chain() -> Formula:
    f = Atom("p")
    for _ in range(_DEEP - 1):
        f = And(f, Atom("p"))
    return f


def _deep_right(make) -> Formula:
    f = Atom("p")
    for _ in range(_DEEP):
        f = make(f)
    return f


_DEEP_INPUTS = {
    "redundant parentheses": ("(" * _DEEP + "p" + ")" * _DEEP, lambda: Atom("p")),
    "nested parentheses": (
        "q & (" * _DEEP + "p" + ")" * _DEEP,
        lambda: _deep_right(lambda f: And(Atom("q"), f)),
    ),
    "~ chain": ("~" * _DEEP + "p", lambda: _deep_right(neg)),
    "=> chain": ("q => " * _DEEP + "p", lambda: _deep_right(lambda f: Imp(Atom("q"), f))),
    "& chain": (" & ".join(["p"] * _DEEP), _deep_and_chain),
    "nested terms": ("p(" + "f(" * _DEEP + "a" + ")" * (_DEEP + 1), None),
    "nested quantifiers": ("forall x. exists y. " * 250 + "r(x, y)", None),
}


@pytest.mark.parametrize("name", list(_DEEP_INPUTS))
def test_deep_inputs_parse_and_print_at_the_default_recursion_limit(name):
    limit = sys.getrecursionlimit()
    text, build = _DEEP_INPUTS[name]
    f = parse_formula(text)
    if build is not None:
        assert f is build()
    printed = format_formula(f)
    assert parse_formula(printed) == f
    assert parse_formula(printed) is parse_formula(format_formula(parse_formula(printed)))
    assert sys.getrecursionlimit() == limit


def test_deep_nested_term_and_quantifiers_have_their_depth():
    t = parse_term("f(" * _DEEP + "a" + ")" * _DEEP)
    depth = 0
    while type(t) is App:
        t, depth = t.args[0], depth + 1
    assert (depth, t) == (_DEEP, Const("a"))
    f = parse_formula(_DEEP_INPUTS["nested quantifiers"][0])
    depth = 0
    while type(f) in (Forall, Exists):
        f, depth = f.body, depth + 1
    assert (depth, f) == (500, Atom("r", (Bound(1), Bound(0))))


def test_deep_member_round_trips_through_a_proof_document():
    limit = sys.getrecursionlimit()
    f = parse_formula(_DEEP_INPUTS["nested parentheses"][0])
    proof = Proof(RuleId.AXIOM, Sequent((f, Atom("p")), (Atom("p"),)))
    loaded, cls = load_proof(dump_proof(proof, INTUITIONISTIC))
    assert loaded == proof and cls == INTUITIONISTIC
    assert any(g is f for g in loaded.conclusion.ante)
    assert sys.getrecursionlimit() == limit
