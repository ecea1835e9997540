"""Command-line surface: exit codes, flags, emission, corpus runner."""

import io
import json
import subprocess
import sys

import pytest

from seqcalc.cli import (
    EXIT_DATA,
    EXIT_PROVED,
    EXIT_REFUTED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _limits,
    build_parser,
    main,
)
from seqcalc.search import SearchLimits

from _documents import DEEPLY_NESTED, FLAT, MALFORMED, malformed

PEIRCE = "|- ((q => s) => q) => q"


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# prove


def test_prove_classical_success(capsys):
    assert run("prove", "--logic", "c", PEIRCE) == EXIT_PROVED
    out = capsys.readouterr().out
    assert out.startswith("proved [cstar]")
    assert "height=" in out and "size=" in out


def test_prove_defaults_to_classical(capsys):
    assert run("prove", PEIRCE) == EXIT_PROVED
    assert "[cstar]" in capsys.readouterr().out


def test_prove_refuted(capsys):
    assert run("prove", "--logic", "i", PEIRCE) == EXIT_REFUTED
    assert capsys.readouterr().out.strip() == "refuted"


def test_prove_goal_directed_miss(capsys):
    assert run("prove", "--logic", "o", "q | s |- s | q") == EXIT_UNKNOWN
    assert "not proved" in capsys.readouterr().out


def test_prove_restart_flag(capsys):
    assert run("prove", "--restart", PEIRCE) == EXIT_PROVED
    assert "[og]" in capsys.readouterr().out


def test_prove_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("q |- q"))
    assert run("prove", "-") == EXIT_PROVED
    capsys.readouterr()


def test_prove_reads_files(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("q |- q")
    assert run("prove", str(f)) == EXIT_PROVED
    capsys.readouterr()


# ---------------------------------------------------------------------------
# usage and data errors


def test_herbrandize_outside_classical_is_a_usage_error(capsys):
    assert run("prove", "--logic", "i", "--herbrandize", PEIRCE) == EXIT_USAGE
    assert "unsound" in capsys.readouterr().err


def test_restart_conflicts_with_explicit_logic(capsys):
    assert run("prove", "--restart", "--logic", "c", PEIRCE) == EXIT_USAGE
    capsys.readouterr()


def test_multi_succedent_with_singleton_logic_is_usage(capsys):
    assert run("prove", "--logic", "i", "|- q, s") == EXIT_USAGE
    assert "succedent" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("prove", PEIRCE), ("corpus", "run")])
def test_limit_flags_default_to_the_search_limits(argv):
    assert _limits(build_parser().parse_args(argv)) == SearchLimits()


def test_unparsable_sequent_is_a_data_error(capsys):
    assert run("prove", "q &") == EXIT_DATA
    assert "parse error" in capsys.readouterr().err


def test_unknown_flag_is_usage(capsys):
    assert run("prove", "--wat", PEIRCE) == EXIT_USAGE
    capsys.readouterr()


def test_herbrandize_with_default_logic_is_fine(capsys):
    assert run("prove", "--herbrandize", "forall x. p(x) |- p(a)") == EXIT_PROVED
    capsys.readouterr()


# ---------------------------------------------------------------------------
# emit / check / analyze


def test_emitted_proof_revalidates(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run("prove", PEIRCE, "--emit", str(out)) == EXIT_PROVED
    assert run("check", str(out)) == EXIT_PROVED
    text = capsys.readouterr().out
    assert "ok [cstar]" in text
    data = json.loads(out.read_text())
    assert data["class"] == "cstar"


def test_check_against_explicit_class(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", PEIRCE, "--emit", str(out))
    assert run("check", str(out), "--class", "cstar") == EXIT_PROVED
    assert run("check", str(out), "--class", "i") == EXIT_REFUTED
    text = capsys.readouterr().out
    assert "invalid at" in text


def test_check_restart_classes_need_goal(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", "--restart", PEIRCE, "--emit", str(out))
    assert run("check", str(out), "--class", "og") == EXIT_USAGE
    goal = "((q => s) => q) => q"
    assert run("check", str(out), "--class", "og", "--goal", goal) == EXIT_PROVED
    assert run("check", str(out), "--class", "og", "--goal", "s") == EXIT_REFUTED
    assert capsys.readouterr().err == "proof class 'og' needs a goal formula\n"


def test_check_goal_of_a_goalless_class_is_usage_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", PEIRCE, "--emit", str(out))
    capsys.readouterr()
    assert run("check", str(out), "--class", "c", "--goal", "q") == EXIT_USAGE
    assert capsys.readouterr().err == "proof class 'c' does not take a goal\n"


def test_check_goal_without_class_is_usage_error(tmp_path, capsys):
    # the goal would otherwise be dropped and the file's own class checked
    out = tmp_path / "p.json"
    run("prove", "p |- p", "--emit", str(out))
    capsys.readouterr()
    assert run("check", str(out), "--goal", "q & r") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "--goal needs --class: the goal is read only with an explicit class\n"
    assert captured.out == ""


def test_check_goal_parse_error_is_data(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", "--restart", PEIRCE, "--emit", str(out))
    assert run("check", str(out), "--class", "og", "--goal", "q &") == EXIT_DATA
    assert capsys.readouterr().err.startswith("parse error: ")


def test_check_missing_file_is_data_error(capsys):
    assert run("check", "/nonexistent/p.json") == EXIT_DATA
    capsys.readouterr()


def test_check_malformed_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run("check", str(bad)) == EXIT_DATA
    bad.write_text('{"format": 3, "class": "c", "ante": [], "succ": [], "nodes": [{"rule": "axiom2"}]}')
    assert run("check", str(bad)) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "analyze"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_flat_document_is_data_error(tmp_path, capsys, command, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malformed(name)))
    assert run(command, str(bad)) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"malformed proof file: {MALFORMED[name][1]}")


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_deeply_nested_document_is_data_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(DEEPLY_NESTED)
    assert run(command, str(bad)) == EXIT_DATA
    assert capsys.readouterr().err == "malformed proof file: proof document nests too deeply\n"


def test_hand_written_flat_document_checks(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FLAT))
    assert run("check", str(good)) == EXIT_PROVED
    assert capsys.readouterr().out == "ok [c] q, s |- q & s\n"


def test_analyze_reports_rules_and_conditions(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", PEIRCE, "--emit", str(out))
    capsys.readouterr()
    assert run("analyze", str(out)) == EXIT_PROVED
    text = capsys.readouterr().out
    assert "rules: " in text and "axiom" in text
    assert "profile: " in text
    assert "reduction[intuitionistic]: none" in text  # imp-r and imp-l both used
    assert "reduction[augmented]: condition 1" in text  # no forall-r
    assert "reduction[restart]: condition 1" in text


def test_analyze_missing_file_is_data_error(capsys):
    assert run("analyze", "/nonexistent/p.json") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("cannot read /nonexistent/p.json: ")


def test_analyze_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run("analyze", str(bad)) == EXIT_DATA
    assert capsys.readouterr().err.startswith("malformed proof file: ")
    bad.write_text(
        '{"format": 3, "class": "c", "ante": ["q &"], "succ": [], "nodes": [{"rule": "axiom"}]}'
    )
    assert run("analyze", str(bad)) == EXIT_DATA
    assert capsys.readouterr().err == "expected a formula, found end of input (line 1, column 4)\n"


def test_analyze_axiom_only_profile(tmp_path, capsys):
    out = tmp_path / "p.json"
    run("prove", "q |- q", "--emit", str(out))
    capsys.readouterr()
    assert run("analyze", str(out)) == EXIT_PROVED
    text = capsys.readouterr().out
    assert "profile: (axioms only)" in text
    assert "reduction[intuitionistic]: condition 1" in text


# ---------------------------------------------------------------------------
# classify


def test_classify_membership(capsys):
    assert run("classify", "--fragment", "f1", "--role", "clause", "forall x. (p(x) | q)") == EXIT_PROVED
    assert capsys.readouterr().out.strip() == "no"
    assert run("classify", "--fragment", "f2", "--role", "clause", "forall x. (p(x) | q)") == EXIT_PROVED
    assert capsys.readouterr().out.strip() == "yes"


@pytest.mark.parametrize("chain,verdict", [(" & ".join(["q"] * 2_001), "yes"), ("~" * 2_000 + "q", "no")])
def test_classify_a_2000_deep_chain(chain, verdict, capsys):
    assert run("classify", "--fragment", "f1", "--role", "goal", chain) == EXIT_PROVED
    assert capsys.readouterr().out.strip() == verdict


def test_classify_gprime_role(capsys):
    assert run("classify", "--fragment", "lp-cls", "--role", "gprime", "q | s") == EXIT_PROVED
    assert capsys.readouterr().out.strip() == "yes"


def test_classify_gprime_needs_the_classical_lp_fragment(capsys):
    assert run("classify", "--fragment", "f1", "--role", "gprime", "q") == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_classify_parse_error(capsys):
    assert run("classify", "--fragment", "f1", "--role", "goal", "q &") == EXIT_DATA
    assert capsys.readouterr().err.startswith("parse error: ")


# ---------------------------------------------------------------------------
# corpus


def test_shipped_corpus_all_green(capsys, corpus):
    assert run("corpus", "run") == EXIT_PROVED
    out = capsys.readouterr().out
    assert f"{len(corpus)}/{len(corpus)} entries match" in out
    assert "FAIL" not in out


def test_corpus_mismatch_fails(tmp_path, capsys):
    f = tmp_path / "c.corpus"
    f.write_text("bad-row ; q |- q ; C=no ; I=no ; O=no\n")
    assert run("corpus", "run", str(f)) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 entries match" in out


def test_corpus_counts_a_multi_succedent_entry_as_no_under_i_and_o(tmp_path, capsys):
    f = tmp_path / "c.corpus"
    f.write_text("excluded-middle ; |- q, q => bot ; C=yes ; I=no ; O=no\n")
    assert run("corpus", "run", str(f)) == EXIT_PROVED
    out = capsys.readouterr().out
    assert "c=yes i=no o=no" in out and "1/1 entries match" in out


def test_corpus_parse_error_is_data(tmp_path, capsys):
    f = tmp_path / "c.corpus"
    f.write_text("only two fields ; q |- q\n")
    assert run("corpus", "run", str(f)) == EXIT_DATA
    assert capsys.readouterr().err.startswith("parse error: ")


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "seqcalc", "prove", "q |- q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PROVED
    assert "proved" in proc.stdout
