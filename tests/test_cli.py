"""End-to-end command-line checks (subprocess, real exit codes)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuntzgeo import GScalar, checks, cli, derive

CMD = [sys.executable, "-m", "cuntzgeo"]


def run(*argv, **kw):
    return subprocess.run(CMD + list(argv), capture_output=True, text=True, **kw)


def write_metric(tmp_path, rows, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return str(path)


# -- eval / derive / d ----------------------------------------------------------

def test_eval_relation():
    r = run("eval", "S1* S1")
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_eval_completeness():
    r = run("eval", "S1 S1* + S2 S2* + S3 S3*")
    assert r.stdout == "1\n"


def test_eval_differential():
    r = run("eval", "d(S1)")
    assert r.stdout == "- e2 S3 + e3 S2\n"


def test_eval_json_is_structured():
    r = run("eval", "--json", "1/2 S1")
    doc = json.loads(r.stdout)
    assert doc["kind"] == "algebra"
    assert doc["canonical"] == "1/2 S1"
    assert doc["terms"][0]["mu"] == [1]


@pytest.mark.parametrize("flags", [[], ["--decimal"]])
def test_eval_json_parts_reduce_separately(capsys, flags):
    """1/2 + 1/3i is the triple (3, 2, 6); ``re`` and ``im`` are each part
    reduced alone, as fractions whatever ``--decimal`` says."""
    assert cli.main(["eval", "--json", *flags, "(1/2 + 1/3i) S1 - 3/4i S2*"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(t["mu"], t["nu"], t["re"], t["im"]) for t in doc["terms"]] == [
        ([1], [], "1/2", "1/3"), ([], [2], "0", "-3/4")]


def test_derive_table_entry():
    r = run("derive", "1", "S2")
    assert r.stdout == "- S3\n"
    assert run("derive", "3", "S3").stdout == "0\n"


def test_derive_leibniz_example():
    r = run("derive", "2", "S1 S2")
    assert r.stdout == "- S3 S2\n"


def test_derive_of_a_differential_is_exit_2():
    r = run("derive", "1", "d(S1)")
    assert r.returncode == 2
    assert "differential in algebra context (at offset 0)" in r.stderr


def test_d_subcommand():
    assert run("d", "S1").stdout == "- e2 S3 + e3 S2\n"
    r = run("d", "S2* d(S3)")  # d(e1) = e23
    assert r.stdout == "e23\n"


def test_d_rejects_two_forms():
    r = run("d", "e1 e2")
    assert r.returncode == 2
    assert "outside this calculus" in r.stderr


def _count_calls(monkeypatch, name):
    """Count the calls of a printer through its cuntzgeo.cli name."""
    calls = []
    printer = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or printer(*a))
    return calls


def test_commands_build_only_the_output_they_print(monkeypatch, capsys):
    canonical = _count_calls(monkeypatch, "print_canonical")
    assert cli.main(["eval", "e1 S1 S2* + 2 e3"]) == 0
    assert capsys.readouterr().out == "e1 S1 S2* + 2 e3\n"
    assert len(canonical) == 1
    tensor = _count_calls(monkeypatch, "print_tensor")
    dense = str(Path(__file__).parent / "fixtures" / "dense.json")
    assert cli.main(["curvature", "--json", dense]) == 0
    assert json.loads(capsys.readouterr().out)["scalar"]
    assert tensor == []


# An element keeps its terms in the order they were formed and is sorted
# only when printed, and d1 folds those unsorted term maps; the texts are
# those of CI's "Determinism smoke test": an algebra text written out of
# display order, and a one-form text whose sum completes a family.
_OUT_OF_ORDER = "S2 S2 S3* S1* + S1 S3 S3* S2* + 2 S3* + S1 S1 S1* S2* + S3 S2* + S1 S2 S2* S2*"
_FAMILY = "e1 S1 S3 S3* S2* + e1 S1 S1 S1* S2* + 2 e3 S3* + e1 S1 S2 S2* S2*"
_FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("argv", [
    ["curvature", "--json", str(_FIXTURES / "complex_32.json")],
    ["levi-civita", "--json", str(_FIXTURES / "dense.json")],
    ["verify-paper", "--json"],
    ["eval", _OUT_OF_ORDER],
    ["d", "--json", _FAMILY],
])
def test_output_does_not_depend_on_the_hash_seed(argv):
    outs = [subprocess.run(CMD + argv, capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert [r.returncode for r in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout


# -- exit codes ------------------------------------------------------------------

def test_parse_error_is_exit_2():
    r = run("eval", "S1 +")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "parse error" in r.stderr
    assert "offset 4" in r.stderr


def test_leading_minus_needs_the_separator():
    """argparse reads "-S1" as an option: a usage error, exit 2 without an
    offset.  After "--" every argument is positional."""
    for argv in (("eval", "-S1"), ("derive", "1", "-S2")):
        r = run(*argv)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("usage:") and "offset" not in r.stderr
    r = run("eval", "--", "-S1")
    assert (r.returncode, r.stdout) == (0, "- S1\n")
    assert run("derive", "1", "--", "-S2").stdout == "S3\n"


def test_a_separator_as_the_expression_is_exit_2():
    """An EXPR of "--" after "--" is a usage error where argparse drops every
    "--" (it hands ``derive`` an empty list), and a parse error of the text
    "--" where it drops only the first: exit 2 either way, never 5."""
    for argv in (("derive", "2", "--", "--"), ("derive", "--", "2", "--"),
                 ("eval", "--", "--"), ("d", "--", "--")):
        r = run(*argv)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "internal error" not in r.stderr


def test_derive_rejects_an_index_outside_1_to_3():
    # argparse checks the index against the texts "1", "2" and "3": a usage
    # error, exit 2, before any expression is read, also for an int that
    # int() would read (a sign, an underscore, padding or another digit)
    for index in ("0", "4", "x", "0_2", "+2", " 2 ", "٢"):
        r = run("derive", index, "S1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("usage:") and "invalid" in r.stderr


def test_d_of_a_two_form_is_exit_2(capsys):
    assert cli.main(["d", "e12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: d of a two-form is outside this calculus "
                            "(at offset 0)\n")


def test_deep_nesting_is_exit_2():
    r = run("eval", "(" * 2000 + "S1" + ")" * 2000)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("parse error:")
    assert "nesting" in r.stderr


def test_long_literal_is_exit_2():
    r = run("eval", "1" + "0" * 4999)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("parse error:")
    assert "literal" in r.stderr


def test_capacity_cap_is_exit_3():
    long_product = " ".join(["S1"] * 17)  # word cap is 16 letters
    r = run("eval", long_product)
    assert r.returncode == 3
    assert "resource cap" in r.stderr


def test_asymmetric_metric_is_exit_4(tmp_path):
    path = write_metric(tmp_path, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    r = run("levi-civita", path)
    assert r.returncode == 4
    assert "metric not symmetric" in r.stderr


def test_singular_metric_is_exit_4(tmp_path):
    path = write_metric(tmp_path, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    r = run("curvature", path)
    assert r.returncode == 4
    assert "determinant" in r.stderr


def test_float_metric_is_exit_4(tmp_path):
    path = write_metric(tmp_path, [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]])
    r = run("levi-civita", path)
    assert r.returncode == 4
    assert "float" in r.stderr


def test_missing_metric_file_is_exit_4(tmp_path):
    r = run("levi-civita", str(tmp_path / "nope.json"))
    assert r.returncode == 4


def test_undecodable_metric_file_is_exit_4(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'[["\xe9", 0, 0], [0, 1, 0], [0, 0, 1]]')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path, fragment in ((bad, "can't decode"), (deep, "nests too deeply")):
        r = run("levi-civita", str(path))
        assert r.returncode == 4
        assert fragment in r.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-string digit limit")
def test_long_json_integer_in_metric_file_is_exit_4(tmp_path):
    path = tmp_path / "long.json"
    path.write_text("[[" + "1" * 5000 + ", 0, 0], [0, 1, 0], [0, 0, 1]]")
    r = run("levi-civita", str(path))
    assert r.returncode == 4
    assert r.stderr.startswith("invalid metric:")
    assert "too long to decode" in r.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-string digit limit")
def test_a_lower_int_string_limit_bounds_literals(tmp_path):
    """Under ``-X int_max_str_digits=640`` a literal of 641 to 4300 digits
    is a parse error naming 640, not an internal error from ``int()``."""
    limited = [sys.executable, "-X", "int_max_str_digits=640", "-m", "cuntzgeo"]
    sevens = "7" * 1000
    r = subprocess.run(limited + ["eval", sevens + " S1"], capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr == "parse error: integer literal longer than 640 digits (at offset 0)\n"
    path = write_metric(tmp_path, [[sevens, 0, 0], [0, 1, 0], [0, 0, 1]])
    r = subprocess.run(limited + ["curvature", path], capture_output=True, text=True)
    assert r.returncode == 4
    assert r.stderr.startswith("invalid metric:")
    assert "integer literal longer than 640 digits" in r.stderr
    r = subprocess.run(limited + ["eval", sevens[:640] + " S1"], capture_output=True,
                       text=True)
    assert (r.returncode, r.stdout) == (0, sevens[:640] + " S1\n")


def test_differential_in_metric_entry_is_exit_4(tmp_path):
    path = write_metric(tmp_path, [["d(S1)", 0, 0], [0, 1, 0], [0, 0, 1]])
    r = run("levi-civita", path)
    assert r.returncode == 4
    assert "differential in algebra context" in r.stderr


def test_internal_error_is_exit_5(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_eval", crash)
    assert cli.main(["eval", "S1"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom second line\n"


def test_closed_stdout_is_exit_141_without_message():
    p = subprocess.Popen(CMD + ["verify-paper"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=120) == 141
    assert err == b""


def test_broken_pipe_leaves_an_in_process_stdout_alone(monkeypatch, capsys):
    def broken(args):
        print("partial")
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_eval", broken)
    assert cli.main(["eval", "S1"]) == 141
    captured = capsys.readouterr()
    assert captured.out == "partial\n"
    assert captured.err == ""


def test_argument_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_keyboard_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_eval", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["eval", "S1"])


# -- levi-civita -----------------------------------------------------------------

IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_levi_civita_identity_table(tmp_path):
    path = write_metric(tmp_path, IDENTITY)
    r = run("levi-civita", path)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "Gamma 1 3 2 = 1/2" in lines
    assert "Gamma 1 2 3 = - 1/2" in lines
    assert "Gamma 2 1 3 = 1/2" in lines
    assert "Gamma 3 2 1 = 1/2" in lines
    assert "Gamma 1 1 1 = 0" in lines
    for i in (1, 2, 3):
        assert f"torsion e{i} = 0" in lines
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert f"unitarity {i} {j} = 0" in lines


def test_levi_civita_scaled_metric_same_table(tmp_path):
    a = run("levi-civita", write_metric(tmp_path, IDENTITY, "a.json"))
    doubled = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    b = run("levi-civita", write_metric(tmp_path, doubled, "b.json"))
    gammas_a = [l for l in a.stdout.splitlines() if l.startswith("Gamma")]
    gammas_b = [l for l in b.stdout.splitlines() if l.startswith("Gamma")]
    assert gammas_a == gammas_b


def test_levi_civita_json_schema(tmp_path):
    path = write_metric(tmp_path, IDENTITY)
    r = run("levi-civita", "--json", path)
    doc = json.loads(r.stdout)
    assert set(doc) == {"metric", "connection", "christoffel", "torsion",
                        "unitarity_residual"}
    table = {tuple(row["index"]): row["value"] for row in doc["christoffel"]}
    assert len(table) == 27
    assert table[(1, 3, 2)] == "1/2"
    assert table[(2, 3, 1)] == "- 1/2"
    assert all(v == "0" for row in doc["unitarity_residual"] for v in row)


# -- curvature --------------------------------------------------------------------

def test_curvature_identity(tmp_path):
    path = write_metric(tmp_path, IDENTITY)
    r = run("curvature", path)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "scalar = - 3/4"
    assert "Ric 1 1 = - 1/4" in lines
    assert "Ric 2 2 = - 1/4" in lines
    assert "Ric 1 2 = 0" in lines


def test_curvature_decimal_flag(tmp_path):
    path = write_metric(tmp_path, IDENTITY)
    r = run("curvature", "--decimal", path)
    assert r.stdout.splitlines()[0] == "scalar = - 0.75"


def test_curvature_json(tmp_path):
    path = write_metric(tmp_path, IDENTITY)
    r = run("curvature", "--json", path)
    doc = json.loads(r.stdout)
    assert doc["scalar"] == "- 3/4"
    ric = {tuple(row["index"]): row["value"] for row in doc["ricci"]}
    assert ric[(1, 1)] == "- 1/4"
    assert (2, 2) in ric and (1, 2) not in ric  # zeros are not stored
    e1 = {tuple(row["index"]): row["value"] for row in doc["curvature"]["e1"]}
    assert e1[(2, 2, 1)] == "1/8"
    assert e1[(2, 1, 2)] == "- 1/8"


def test_output_is_deterministic(tmp_path):
    path = write_metric(tmp_path, [["1", "1/2", "0"], ["1/2", "2", "0"], ["0", "0", "1"]])
    first = run("curvature", "--json", path)
    second = run("curvature", "--json", path)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# -- verify-paper -----------------------------------------------------------------

def test_verify_paper_passes():
    r = run("verify-paper")
    assert r.returncode == 0
    assert "result: pass" in r.stdout
    assert " 0 failed" in r.stdout


def test_verify_paper_reports_sign_note_as_info():
    r = run("verify-paper", "--json")
    doc = json.loads(r.stdout)
    assert doc["result"] == "pass"
    info = [c for c in doc["checks"] if c["status"] == "info"]
    assert len(info) == 1
    assert "bracket" in info[0]["id"]
    statuses = {c["status"] for c in doc["checks"]}
    assert statuses == {"pass", "info"}


def test_a_wrong_derivation_fails_the_bracket_rows(monkeypatch, capsys):
    """With twice each derivation the brackets are 4 [d_a, d_b] against
    2 d_k, so every bracket row reads fail, computed "mismatch"."""
    monkeypatch.setattr(checks, "derive",
                        lambda i, x: derive(i, x).scale(GScalar.of(2)))
    rows = {r.ident: r for r in checks.run_checks()}
    for ab in ("12", "13", "23"):
        r = rows[f"derivation.bracket.{ab}"]
        assert (r.status, r.computed) == ("fail", "mismatch")
    assert cli.main(["verify-paper"]) == 1
    out, err = capsys.readouterr()
    assert err == "verification failed\n"
    # the three brackets and the six off-diagonal derivation rows fail
    assert out.splitlines()[-1] == "result: fail (118 passed, 9 failed, 1 informational)"
    assert cli.main(["verify-paper", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["result"] == "fail"
    assert err == "verification failed\n"


@pytest.mark.parametrize("command,operands", [
    ("eval", " EXPR"),
    ("derive", " INDEX EXPR"),
    ("d", " EXPR"),
    ("levi-civita", " METRIC_JSON"),
    ("curvature", " METRIC_JSON"),
    ("verify-paper", ""),
])
def test_each_command_takes_its_operands(monkeypatch, capsys, command, operands):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == f"usage: cuntzgeo {command} [-h] [--json] [--decimal]{operands}"


def test_help_lists_subcommands():
    r = run("--help")
    for name in ("eval", "derive", "d", "levi-civita", "curvature", "verify-paper"):
        assert name in r.stdout
