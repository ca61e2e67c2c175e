"""Golden CLI output: stdout must stay byte-identical to the checked-in captures.

``golden_cli.json`` maps a case id to the stdout of ``cuntzgeo.cli.main`` on
that case's arguments.  It covers ``levi-civita`` and ``curvature`` in plain,
``--json`` and ``--decimal`` mode on the metrics in ``fixtures/`` (identity,
diag(1,1,2), a dense rational metric, a complex symmetric metric and the
indefinite diag(-1,1,1)), and ``verify-paper`` in plain and ``--json`` mode.

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


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("levi-civita", "curvature"):
        for metric in METRICS:
            for mode, flags in MODES.items():
                path = str(HERE / "fixtures" / f"{metric}.json")
                cases[f"{command}-{mode}-{metric}"] = [command, *flags, path]
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
