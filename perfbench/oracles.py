"""Reference deciders the benchmark checks the program against.

Both work on the benchmark's own formula tuples (see ``formulas.py``), never
on the package's data types, so they share no code with the program:

* ``classically_valid`` enumerates truth tables.
* ``G4ip.valid`` decides intuitionistic propositional logic with
  Dyckhoff's contraction-free calculus G4ip (Dyckhoff, "Contraction-free
  sequent calculi for intuitionistic logic", JSL 57(3), 1992).  Every rule
  of G4ip shrinks a multiset ordering on formula weights, so the search
  terminates without a loop check; contexts are kept as sets, which is sound
  because contraction is admissible.
"""

from __future__ import annotations

import itertools

from formulas import BOT, TOP, atoms_of

# ---------------------------------------------------------------------------
# truth tables


def _value(f: tuple, env: dict[str, bool]) -> bool:
    tag = f[0]
    if tag == "atom":
        return env[f[1]]
    if tag == "top":
        return True
    if tag == "bot":
        return False
    if tag == "and":
        return _value(f[1], env) and _value(f[2], env)
    if tag == "or":
        return _value(f[1], env) or _value(f[2], env)
    if tag == "imp":
        return (not _value(f[1], env)) or _value(f[2], env)
    raise ValueError(f"truth tables cover quantifier-free formulas only, got {tag!r}")


def classically_valid(ante: tuple, succ: tuple) -> bool:
    """Every valuation making all of ``ante`` true makes some of ``succ`` true."""
    names = sorted(set().union(*(atoms_of(f) for f in ante + succ)) if ante + succ else ())
    for bits in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if all(_value(f, env) for f in ante) and not any(_value(f, env) for f in succ):
            return False
    return True


# ---------------------------------------------------------------------------
# G4ip


class G4ip:
    """Memoising G4ip decider for sequents ``gamma |- goal`` over sets."""

    def __init__(self) -> None:
        self._memo: dict[tuple[frozenset, tuple], bool] = {}

    def valid(self, ante: tuple, goal: tuple) -> bool:
        return self._prove(frozenset(ante), goal)

    def _prove(self, gamma: frozenset, goal: tuple) -> bool:
        key = (gamma, goal)
        got = self._memo.get(key)
        if got is None:
            got = self._search(gamma, goal)
            self._memo[key] = got
        return got

    def _search(self, gamma: frozenset, goal: tuple) -> bool:
        if goal == TOP or BOT in gamma or (goal[0] == "atom" and goal in gamma):
            return True
        # invertible left rules: one principal suffices
        for f in gamma:
            tag = f[0]
            rest = gamma - {f}
            if tag == "top":
                return self._prove(rest, goal)
            if tag == "and":
                return self._prove(rest | {f[1], f[2]}, goal)
            if tag == "or":
                return self._prove(rest | {f[1]}, goal) and self._prove(rest | {f[2]}, goal)
            if tag == "imp":
                a, b = f[1], f[2]
                if a == BOT:
                    return self._prove(rest, goal)
                if a == TOP or (a[0] == "atom" and a in rest):
                    return self._prove(rest | {b}, goal)
                if a[0] == "and":
                    return self._prove(rest | {("imp", a[1], ("imp", a[2], b))}, goal)
                if a[0] == "or":
                    return self._prove(rest | {("imp", a[1], b), ("imp", a[2], b)}, goal)
        # invertible right rules
        tag = goal[0]
        if tag == "and":
            return self._prove(gamma, goal[1]) and self._prove(gamma, goal[2])
        if tag == "imp":
            return self._prove(gamma | {goal[1]}, goal[2])
        # the choices: a disjunct of the goal, or an implication-left on
        # (c => d) => b
        if tag == "or" and (self._prove(gamma, goal[1]) or self._prove(gamma, goal[2])):
            return True
        for f in gamma:
            if f[0] == "imp" and f[1][0] == "imp":
                (_, c, d), b = f[1], f[2]
                rest = gamma - {f}
                if self._prove(rest | {("imp", d, b)}, ("imp", c, d)) and self._prove(rest | {b}, goal):
                    return True
        return False
