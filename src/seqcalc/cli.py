"""Command-line front end: prove, check, analyze, classify, corpus.

Exit codes follow sysexits conventions where they apply:

* 0  proved / valid / all corpus entries match
* 1  refuted / invalid proof / corpus mismatch
* 2  not settled within the search limits
* 64 usage error (bad flags, unsound flag combinations)
* 65 unreadable or unparsable input data
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .calculus import (
    _KINDS,
    ProofClass,
    check_proof,
    dump_proof,
    load_proof,
    proof_height,
    proof_size,
    rule_profile,
    rule_usage,
)
from .fragments import REDUCTION_STAGES, FragmentId, classify, reduction_conditions
from .parser import ParseError, parse_corpus, parse_formula, parse_sequent
from .search import (
    NotProvedWithinLimits,
    Proved,
    Refuted,
    SearchLimits,
    herbrandize,
    prove,
    prove_restart,
)
from .syntax import format_sequent

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with sysexits-style usage failures instead of SystemExit(2)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _read_text(spec: str) -> str:
    """Inline text, a readable path, or '-' for stdin."""
    if spec == "-" or os.path.exists(spec):
        return _read_file(spec)
    return spec


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}") from exc


def _limits(args) -> SearchLimits:
    return SearchLimits(
        depth=args.depth,
        quantifier_budget=args.qbudget,
        node_budget=args.node_budget,
        strengthened_axioms=getattr(args, "strengthened_axioms", False),
    )


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=40, help="proof search depth bound")
    p.add_argument("--qbudget", type=int, default=3, help="instantiations allowed per quantifier occurrence")
    p.add_argument("--node-budget", type=int, default=1_000_000, help="total search node bound")


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args) -> int:
    if args.herbrandize and (args.logic or "c") != "c":
        raise _UsageError("--herbrandize is unsound outside classical search; drop it or use --logic c")
    if args.restart and args.logic in ("c", "i"):
        raise _UsageError("--restart is a goal-directed relation; it cannot be combined with --logic c or i")

    sequent = parse_sequent(_read_text(args.sequent))
    limits = _limits(args)
    if args.herbrandize:
        sequent = herbrandize(sequent)

    try:
        if args.restart:
            outcome = prove_restart(sequent, limits)
        else:
            outcome = prove(sequent, args.logic or "c", limits)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    if isinstance(outcome, Proved):
        kind = outcome.proof_class.kind
        print(
            f"proved [{kind}] size={proof_size(outcome.proof)} "
            f"height={proof_height(outcome.proof)} {format_sequent(outcome.proof.conclusion)}"
        )
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(dump_proof(outcome.proof, outcome.proof_class))
        return EXIT_PROVED
    if isinstance(outcome, Refuted):
        print("refuted")
        return EXIT_REFUTED
    print("not proved within limits")
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# check


def _load_proof_file(path: str):
    """The proof and class stored at path; unreadable or malformed files
    raise _DataError."""
    text = _read_file(path)
    try:
        return load_proof(text)
    except ParseError as exc:
        raise _DataError(str(exc)) from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise _DataError(f"malformed proof file: {exc}") from exc


def cmd_check(args) -> int:
    if args.goal is not None and not args.proof_class:
        raise _UsageError("--goal needs --class: the goal is read only with an explicit class")
    proof, cls = _load_proof_file(args.proof)
    if args.proof_class:
        goal = parse_formula(_read_text(args.goal)) if args.goal else None
        try:
            cls = ProofClass(args.proof_class, goal)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc

    report = check_proof(proof, cls, strengthened_axioms=args.strengthened_axioms)
    if report:
        print(f"ok [{cls.kind}] {format_sequent(proof.conclusion)}")
        return EXIT_PROVED
    where = "/".join(map(str, report.path)) or "root"
    print(f"invalid at {where}: {report.message}")
    return EXIT_REFUTED


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    proof, cls = _load_proof_file(args.proof)
    usage = rule_usage(proof)
    profile = rule_profile(proof)
    print(f"end sequent: {format_sequent(proof.conclusion)}")
    print(f"class: {cls.kind}")
    print(f"size: {proof_size(proof)}  height: {proof_height(proof)}")
    print("rules: " + ", ".join(sorted(r.value for r in usage)))
    print("profile: " + (", ".join(sorted(profile)) or "(axioms only)"))
    for stage in REDUCTION_STAGES:
        ordinal = reduction_conditions(profile, stage)
        verdict = f"condition {ordinal}" if ordinal else "none"
        print(f"reduction[{stage}]: {verdict}")
    return EXIT_PROVED


# ---------------------------------------------------------------------------
# classify


_ROLE_ALIASES = {"goal": "goal", "clause": "clause", "gprime": "base-goal", "base-goal": "base-goal"}


def cmd_classify(args) -> int:
    formula = parse_formula(_read_text(args.formula))
    try:
        verdict = classify(formula, args.fragment, _ROLE_ALIASES[args.role])
    except ValueError as exc:
        print(f"seqcalc classify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("yes" if verdict else "no")
    return EXIT_PROVED


# ---------------------------------------------------------------------------
# corpus


def _corpus_text(path: str | None) -> str:
    if path is None:
        return resources.files("seqcalc").joinpath("data/paper.corpus").read_text(encoding="utf-8")
    return _read_file(path)


def cmd_corpus(args) -> int:
    entries = parse_corpus(_corpus_text(args.file))
    limits = _limits(args)
    failures = 0
    rows = []
    for entry in sorted(entries, key=lambda e: e.name):
        cells = []
        entry_ok = True
        for logic in ("c", "i", "o"):
            try:
                outcome = prove(entry.sequent, logic, limits)
                got = isinstance(outcome, Proved)
            except ValueError:
                # the single-succedent relations do not apply at all
                got = False
            want = entry.expected(logic)
            ok = got == want
            entry_ok = entry_ok and ok
            mark = "" if ok else "!"
            cells.append(f"{logic}={'yes' if got else 'no'}{mark}")
        failures += 0 if entry_ok else 1
        rows.append((entry.name, "pass" if entry_ok else "FAIL", " ".join(cells)))

    width = max((len(name) for name, _, _ in rows), default=4)
    for name, status, cells in rows:
        print(f"{name:<{width}}  {status:<4}  {cells}")
    print(f"{len(rows) - failures}/{len(rows)} entries match")
    return EXIT_PROVED if failures == 0 else EXIT_REFUTED


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="seqcalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof of a sequent")
    p.add_argument("sequent", help="sequent text, a file path, or '-' for stdin")
    p.add_argument("--logic", choices=("c", "i", "o"), default=None, help="proof relation (default c)")
    p.add_argument("--restart", action="store_true", help="use the goal-directed restart relation")
    p.add_argument("--herbrandize", action="store_true", help="strip strong quantifiers first (classical only)")
    p.add_argument("--emit", metavar="PATH", help="write the found proof as JSON")
    p.add_argument("--strengthened-axioms", action="store_true", help="allow compound axiom closures")
    _add_limit_flags(p)
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("check", help="validate an emitted proof file")
    p.add_argument("proof", help="proof JSON path, or '-' for stdin")
    p.add_argument(
        "--class",
        dest="proof_class",
        choices=_KINDS,
        default=None,
        help="calculus to validate against (default: the class recorded in the file)",
    )
    p.add_argument("--goal", help="reserved goal formula for the restart classes (needs --class)")
    p.add_argument("--strengthened-axioms", action="store_true", help="allow compound axiom closures")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("analyze", help="print rule usage and reduction-condition verdicts")
    p.add_argument("proof", help="proof JSON path, or '-' for stdin")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("classify", help="test grammar membership of a formula")
    p.add_argument("formula", help="formula text, a file path, or '-' for stdin")
    p.add_argument("--fragment", required=True, choices=tuple(f.value for f in FragmentId))
    p.add_argument("--role", required=True, choices=tuple(_ROLE_ALIASES))
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("corpus", help="run a corpus file under all three relations")
    p.add_argument("action", choices=("run",))
    p.add_argument("file", nargs="?", default=None, help="corpus path (default: the shipped corpus)")
    _add_limit_flags(p)
    p.set_defaults(run=cmd_corpus)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DATA
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
