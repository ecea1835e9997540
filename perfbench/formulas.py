"""The benchmark's own formulas: nested tuples, printed as package syntax.

A formula is one of ``("atom", text)``, ``("top",)``, ``("bot",)``,
``("and", a, b)``, ``("or", a, b)``, ``("imp", a, b)``,
``("forall", var, body)`` and ``("exists", var, body)``.  Atom text is
written as the parser reads it (``q``, ``r(a)``, ``p(x)``).  Inputs reach
the program only as text, so the oracles never see the package's own
formula objects.
"""

from __future__ import annotations

import random

TOP = ("top",)
BOT = ("bot",)
_INFIX = {"and": " & ", "or": " | ", "imp": " => "}


def show(f: tuple) -> str:
    """Fully parenthesised concrete syntax."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("top", "bot"):
        return tag
    if tag in _INFIX:
        return "(" + show(f[1]) + _INFIX[tag] + show(f[2]) + ")"
    return "(" + tag + " " + f[1] + ". " + show(f[2]) + ")"


def show_sequent(ante: tuple, succ: tuple) -> str:
    return ", ".join(show(f) for f in ante) + " |- " + ", ".join(show(f) for f in succ)


def atoms_of(f: tuple) -> set[str]:
    tag = f[0]
    if tag == "atom":
        return {f[1]}
    if tag in _INFIX:
        return atoms_of(f[1]) | atoms_of(f[2])
    if tag in ("forall", "exists"):
        return atoms_of(f[2])
    return set()


def quantifier_free(f: tuple) -> bool:
    """Whether f has no quantifier; its atoms then act as propositional
    letters, so the propositional oracles decide it."""
    tag = f[0]
    if tag in _INFIX:
        return quantifier_free(f[1]) and quantifier_free(f[2])
    return tag not in ("forall", "exists")


def random_formula(rng: random.Random, n: int, leaves: tuple) -> tuple:
    """A random propositional formula with exactly ``n`` binary connectives."""
    if n == 0:
        return rng.choice(leaves)
    i = rng.randrange(n)
    return (rng.choice(("and", "or", "imp")), random_formula(rng, i, leaves), random_formula(rng, n - 1 - i, leaves))



PROP_LEAVES = (
    ("atom", "q"), ("atom", "q"), ("atom", "s"), ("atom", "s"), ("atom", "t"), ("atom", "r(a)"), TOP, BOT,
)


def random_prop_sequent(rng: random.Random, repeat_share: float):
    """A quantifier-free sequent ``(ante, (goal,))`` with 1-4 antecedent
    members and 3-10 connectives in all.  In ``repeat_share`` of the draws
    one atom of the sequent is an antecedent member twice.

    Compound subformula occurrences are pairwise distinct: a repeated
    compound member trips the intuitionistic loop-check fault at a rate that
    depends on the draw (see the README), and that fault is counted on fixed
    inputs instead."""
    while True:
        n_ante = rng.randint(1, 4)
        sizes = [0] * (n_ante + 1)
        for _ in range(rng.randint(3, 10)):
            sizes[rng.randrange(len(sizes))] += 1
        members = [random_formula(rng, k, PROP_LEAVES) for k in sizes]
        if distinct_compounds(members):
            break
    ante, goal = members[:-1], members[-1]
    if rng.random() < repeat_share:
        letter = ("atom", rng.choice(sorted(set().union(*(atoms_of(f) for f in members)) or {"q"})))
        ante += [letter] if letter in ante else [letter, letter]
    return tuple(ante), (goal,)

def _compounds(f: tuple, out: list) -> None:
    tag = f[0]
    if tag in _INFIX:
        out.append(f)
        _compounds(f[1], out)
        _compounds(f[2], out)
    elif tag in ("forall", "exists"):
        out.append(f)
        _compounds(f[2], out)


def distinct_compounds(members: list) -> bool:
    """No compound subformula occurs twice among the members."""
    seen: list = []
    for f in members:
        _compounds(f, seen)
    return len(set(seen)) == len(seen)


# ---------------------------------------------------------------------------
# fragment grammars
#
# Goal and clause grammars of the paper's fragments, one production per
# entry: "leaf", a connective with the roles of its operands, a quantifier
# with the role of its body, or another role of the same fragment (a unit
# production).

GRAMMARS: dict[str, dict[str, tuple[tuple[str, ...], ...]]] = {
    "f1": {
        "goal": (("leaf",), ("and", "goal", "goal"), ("or", "goal", "goal"), ("forall", "goal"), ("exists", "goal")),
        "clause": (("leaf",), ("imp", "goal", "clause"), ("and", "clause", "clause"), ("forall", "clause"), ("exists", "clause")),
    },
    "f2": {
        "goal": (("leaf",), ("and", "goal", "goal"), ("or", "goal", "goal"), ("exists", "goal")),
        "clause": (("leaf",), ("imp", "goal", "clause"), ("and", "clause", "clause"), ("or", "clause", "clause"),
                   ("forall", "clause"), ("exists", "clause")),
    },
    "f3": {
        "goal": (("leaf",), ("and", "goal", "goal"), ("or", "goal", "goal"), ("forall", "goal"), ("exists", "goal")),
        "clause": (("leaf",), ("imp", "goal", "clause"), ("and", "clause", "clause"), ("or", "clause", "clause"),
                   ("exists", "clause")),
    },
    "f4": {
        "goal": (("leaf",), ("and", "goal", "goal"), ("imp", "clause", "goal"), ("forall", "goal")),
        "clause": (("leaf",), ("and", "clause", "clause"), ("or", "clause", "clause"), ("forall", "clause"),
                   ("exists", "clause")),
    },
    "lp-int": {
        "goal": (("leaf",), ("and", "goal", "goal"), ("or", "goal", "goal"), ("imp", "clause", "goal"),
                 ("forall", "goal"), ("exists", "goal")),
        "clause": (("leaf",), ("imp", "goal", "clause"), ("and", "clause", "clause"), ("forall", "clause")),
    },
    "lp-cls": {
        "base": (("leaf",), ("and", "base", "base"), ("or", "base", "base"), ("forall", "base"), ("exists", "base")),
        "goal": (("base",), ("imp", "clause", "goal"), ("and", "goal", "goal"), ("forall", "goal")),
        "clause": (("leaf",), ("imp", "base", "clause"), ("and", "clause", "clause"), ("forall", "clause")),
    },
}

_LETTERS = ("q", "s", "t")
_CONSTANTS = ("a", "b")


def _leaf(rng: random.Random, scope: tuple[str, ...]) -> tuple:
    roll = rng.random()
    if roll < 0.06:
        return TOP
    if roll < 0.12:
        return BOT
    if roll < 0.5:
        return ("atom", rng.choice(_LETTERS))
    args = scope + _CONSTANTS if scope else _CONSTANTS
    return ("atom", "p(" + rng.choice(args) + ")")


def random_in_grammar(rng: random.Random, fragment: str, role: str, budget: int, scope: tuple[str, ...] = ()) -> tuple:
    """A random member of a fragment role with at most ``budget`` connectives."""
    prods = GRAMMARS[fragment][role]
    if budget == 0:
        prods = tuple(p for p in prods if len(p) == 1)
    prod = rng.choice(prods)
    head = prod[0]
    if head == "leaf":
        return _leaf(rng, scope)
    if head in _INFIX:
        split = rng.randrange(budget)
        return (
            head,
            random_in_grammar(rng, fragment, prod[1], split, scope),
            random_in_grammar(rng, fragment, prod[2], budget - 1 - split, scope),
        )
    if head in ("forall", "exists"):
        var = "x" + str(len(scope))
        return (head, var, random_in_grammar(rng, fragment, prod[1], budget - 1, scope + (var,)))
    return random_in_grammar(rng, fragment, head, budget, scope)


def _ground_atoms(f: tuple, scope: frozenset = frozenset()) -> list[tuple]:
    tag = f[0]
    if tag == "atom":
        inner = f[1][2:-1] if "(" in f[1] else ""
        return [] if inner in scope else [f]
    if tag in _INFIX:
        return _ground_atoms(f[1], scope) + _ground_atoms(f[2], scope)
    if tag in ("forall", "exists"):
        return _ground_atoms(f[2], scope | {f[1]})
    return []


def random_fragment_sequent(rng: random.Random, fragment: str, n_clauses: int, goal_budget: int, clause_budget: int):
    """An in-fragment sequent ``(ante, (goal,))`` whose compound subformula
    occurrences are pairwise distinct.  One of the goal's ground atoms is
    often asserted as a clause, so a useful share is provable."""
    while True:
        goal = random_in_grammar(rng, fragment, "goal", goal_budget)
        clauses = [random_in_grammar(rng, fragment, "clause", clause_budget) for _ in range(n_clauses)]
        if distinct_compounds(clauses + [goal]):
            break
    atoms = _ground_atoms(goal)
    if atoms and rng.random() < 0.7:
        clauses.append(rng.choice(atoms))
    return tuple(clauses), (goal,)


def random_horn_sequent(rng: random.Random, n_facts: int, n_rules: int):
    """n_facts facts and n_rules definite clauses over three unary
    predicates and three constants, with an atomic, conjunctive or
    existential goal."""
    preds, consts = ("p", "q", "r"), ("a", "b", "c")

    def atom(arg: str | None = None) -> tuple:
        return ("atom", rng.choice(preds) + "(" + (arg or rng.choice(consts)) + ")")

    clauses = [atom() for _ in range(n_facts)]
    for _ in range(n_rules):
        body = atom("x")
        if rng.random() < 0.4:
            body = ("and", body, atom("x"))
        clauses.append(("forall", "x", ("imp", body, atom("x"))))
    roll = rng.random()
    if roll < 0.4:
        goal = ("exists", "x", atom("x"))
    elif roll < 0.6:
        goal = ("and", atom(), atom())
    else:
        goal = atom()
    return tuple(clauses), (goal,)
