"""End-to-end command-line checks (subprocess, real exit codes)."""

import json
import subprocess
import sys

import pytest

from cuntzgeo import cli

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


def test_derive_table_entry():
    r = run("derive", "1", "S2")
    assert r.stdout == "- S3\n"
    assert run("derive", "3", "S3").stdout == "0\n"


def test_derive_leibniz_example():
    r = run("derive", "2", "S1 S2")
    assert r.stdout == "- S3 S2\n"


def test_d_subcommand():
    assert run("d", "S1").stdout == "- e2 S3 + e3 S2\n"
    r = run("d", "S2* d(S3)")  # d(e1) = e23
    assert r.stdout == "e23\n"


def test_d_rejects_two_forms():
    r = run("d", "e1 e2")
    assert r.returncode == 2
    assert "outside this calculus" in r.stderr


# -- exit codes ------------------------------------------------------------------

def test_parse_error_is_exit_2():
    r = run("eval", "S1 +")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "parse error" in r.stderr
    assert "offset 4" in r.stderr


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


def test_help_lists_subcommands():
    r = run("--help")
    for name in ("eval", "derive", "d", "levi-civita", "curvature", "verify-paper"):
        assert name in r.stdout
