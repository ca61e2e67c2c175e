"""Golden CLI output: stdout must stay byte-identical to the checked-in captures.

``golden_cli.json`` maps a case id to the stdout of ``cuntzgeo.cli.main`` on
that case's arguments.  It covers ``levi-civita`` and ``curvature`` in plain,
``--json`` and ``--decimal`` mode on the metrics in ``fixtures/`` (identity,
diag(1,1,2), a dense rational metric, a complex symmetric metric and the
indefinite diag(-1,1,1)), ``eval``, ``derive`` and ``d`` in the same three
modes on the expressions in ``EXPRESSIONS``, and ``verify-paper`` in plain
and ``--json`` mode.

The expressions reach the one-form product and ``d1``, and their
coefficients are real, imaginary and mixed scalars and algebra elements of
one and of several terms.

The captures pin the output contract across refactors.  Rewrite them with
``PYTHONPATH=src python tests/test_golden_cli.py`` only for a change that is
meant to alter the output.
"""

import json
from pathlib import Path

import pytest

from cuntzgeo import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
METRICS = ("identity", "diag_1_1_2", "dense", "complex", "indefinite")
MODES = {"plain": [], "json": ["--json"], "decimal": ["--decimal"]}
ONE_FORM = "e1 (S1 + S2*) + (2 + i) e2 S3 - 3/2i e3 + e3 (1/4 - i) S2*"
EXPRESSIONS = {
    "eval-product": ["d(S1) d(S2*)"],
    "eval-product-sum": ["d(S1 S2*) d(S3 + i S1*)"],
    "eval-product-forms": ["(e1 S1 + e2 (1/2i - S3*)) (e3 S2 - (1/5 + 2i) e1)"],
    "eval-algebra": ["S1 S2* + (1/2 - 3/4i) S3 S1* - i S2 + 5/3 - 2i S1 S1*"],
    "eval-one-form": [ONE_FORM],
    "eval-two-form": ["e12 S1 - (1 - i) e23 + e13 (S2 S3* - 1/3) + i e12"],
    "eval-signs": ["2 e1 - 3 e2 S1 S3* - e3 S2 + 1/2 e3 S3 S1"],
    "eval-zero": ["e1 S1 - e1 S1"],
    "derive-1": ["1", "S1 S2* + (1/2 - 3/4i) S3 S1* - 2i S2 S3"],
    "derive-3": ["3", "2 S1 S1 S2* - 1/8i S3* + (3/5 + i) S2"],
    "d-algebra": ["S1 S2 S3* + (2 - i) S2 S1* - 3/4i S3"],
    "d-one-form": ["S1 d(S2) + 1/2i S3* d(S1 S2*)"],
    "d-one-form-basis": [ONE_FORM],
    "d-exact": ["d(S1 S2* + i S3)"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("levi-civita", "curvature"):
        for metric in METRICS:
            for mode, flags in MODES.items():
                path = str(HERE / "fixtures" / f"{metric}.json")
                cases[f"{command}-{mode}-{metric}"] = [command, *flags, path]
    for name, operands in EXPRESSIONS.items():
        command = name.split("-", 1)[0]
        for mode, flags in MODES.items():
            cases[f"{name}-{mode}"] = [command, *flags, *operands]
    for mode in ("plain", "json"):
        cases[f"verify-paper-{mode}"] = ["verify-paper", *MODES[mode]]
    return cases


CASES = _cases()


def _stdout(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got = _stdout(CASES[case], capsys)
    assert got.encode("utf-8") == expected.encode("utf-8")


def test_every_capture_has_a_case():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    captures = {}
    for case, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        captures[case] = buf.getvalue()
    GOLDEN.write_text(json.dumps(captures, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(captures)} captures to {GOLDEN}")
