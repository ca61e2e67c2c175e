"""Command-line interface.

Subcommands (declared in the table ``_COMMANDS``):

* ``eval EXPR``        evaluate an expression, print its canonical form
* ``derive I EXPR``    apply the i-th basis derivation to an algebra element
* ``d EXPR``           apply the exterior differential (degree 0 or 1 input)
* ``levi-civita M``    the Levi-Civita connection of a metric file
* ``curvature M``      full curvature pipeline for a metric file
* ``verify-paper``     recompute the canonical identity table and report

All numbers are exact rationals (``--decimal`` renders terminating decimals
exactly, falling back to fractions).  ``--json`` switches to a single JSON
document on stdout.  Output is deterministic: identical inputs give
byte-identical output.

Exit codes: 0 success, 1 verification failure; 2 parse error, 3 resource
cap exceeded and 4 invalid metric, each reported as one line on stderr
under the prefix that the rejection table ``_REJECTIONS`` gives it; 5
internal error (any other exception, reported as one ``internal error:
<type>: <message>`` line on stderr), 141 stdout closed by its reader
before all output was written (no message; a shell reports 141 for a
process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from math import gcd

from .algebra import _INDICES, AlgElem, CapacityError
from .calculus import OneForm, TwoForm, derive, differential
from .checks import has_failure, run_checks
from .curvature import curvature_report
from .exprs import (ParseError, _frac_text, parse_alg, parse_expr, print_canonical,
                    print_tensor)
from .geometry import (
    MetricError,
    christoffel,
    levi_civita,
    load_metric,
    torsion,
    unitarity_residual,
)


def _index_doc(table: dict, decimal: bool) -> list[dict]:
    """The entries of an index-keyed table in index order (a tensor's order)."""
    return [{"index": list(idx), "value": print_canonical(table[idx], decimal)}
            for idx in sorted(table)]


def _part_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, from the two integers of a triple."""
    g = gcd(n, d)
    return _frac_text(n // g, d // g, False)


# the "kind" of a JSON document, by the type of the value it shows
_KINDS = {AlgElem: "algebra", OneForm: "one-form", TwoForm: "two-form"}


def _print_json(doc: dict) -> None:
    import json  # on first use: a text command never loads it

    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands: each builds only the output that --json selects
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    value = parse_expr(args.expr)
    text = print_canonical(value, args.decimal)
    if not args.json:
        print(text)
        return 0
    doc = {"kind": _KINDS[type(value)], "canonical": text}
    if isinstance(value, AlgElem):
        doc["terms"] = [{"mu": list(m.mu), "nu": list(m.nu),
                         "re": _part_text(x, d), "im": _part_text(y, d)}
                        for m, (x, y, d) in value.terms]
    else:
        doc["components"] = {label: print_canonical(a, args.decimal)
                             for label, a in zip(value.LABELS, value.c)}
    _print_json(doc)
    return 0


def _print_value(args, value, **fields) -> int:
    """Print a result's canonical text, or with ``--json`` the document of
    its kind, then ``fields``, then ``canonical``."""
    text = print_canonical(value, args.decimal)
    if args.json:
        _print_json({"kind": _KINDS[type(value)], **fields, "canonical": text})
    else:
        print(text)
    return 0


def cmd_derive(args) -> int:
    index = int(args.index)
    return _print_value(args, derive(index, parse_alg(args.expr)), derivation=index)


def cmd_d(args) -> int:
    value = parse_expr(args.expr)
    if isinstance(value, TwoForm):
        raise ParseError("d of a two-form is outside this calculus", 0)
    return _print_value(args, differential(value))


def _metric_doc(g, dec: bool) -> list[list[str]]:
    return [[print_canonical(g.entry(i, j), dec) for j in _INDICES] for i in _INDICES]


def cmd_levi_civita(args) -> int:
    g = load_metric(args.metric_json)
    conn = levi_civita(g)
    gamma = christoffel(conn)
    tors = torsion(conn)
    residual = unitarity_residual(g, conn)
    dec = args.decimal

    if args.json:
        _print_json({
            "metric": _metric_doc(g, dec),
            "connection": {
                f"e{i}": _index_doc(conn.value(i).entry_map(), dec) for i in _INDICES
            },
            "christoffel": _index_doc(gamma, dec),
            "torsion": {
                f"e{i}": print_canonical(tors[i - 1], dec) for i in _INDICES
            },
            "unitarity_residual": [
                [print_canonical(residual[i - 1][j - 1], dec) for j in _INDICES]
                for i in _INDICES
            ],
        })
        return 0
    for i in _INDICES:
        print(f"nabla(e{i}) = {print_tensor(conn.value(i), dec)}")
    for key in sorted(gamma):
        print("Gamma {} {} {} = {}".format(*key, print_canonical(gamma[key], dec)))
    for i in _INDICES:
        print(f"torsion e{i} = {print_canonical(tors[i - 1], dec)}")
    for i in _INDICES:
        for j in _INDICES:
            print(f"unitarity {i} {j} = "
                  f"{print_canonical(residual[i - 1][j - 1], dec)}")
    return 0


def cmd_curvature(args) -> int:
    g = load_metric(args.metric_json)
    report = curvature_report(g)
    dec = args.decimal

    if args.json:
        _print_json({
            "metric": _metric_doc(g, dec),
            "scalar": print_canonical(report.scalar, dec),
            "ricci": _index_doc(report.ric.entry_map(), dec),
            "curvature": {
                f"e{i}": _index_doc(report.curv[i - 1].entry_map(), dec) for i in _INDICES
            },
            "theta": _index_doc(report.theta, dec),
        })
        return 0
    print(f"scalar = {print_canonical(report.scalar, dec)}")
    for a in _INDICES:
        for b in _INDICES:
            print(f"Ric {a} {b} = {print_canonical(report.ric.entry(a, b), dec)}")
    for i in _INDICES:
        print(f"R(e{i}) = {print_tensor(report.curv[i - 1], dec)}")
    for key in sorted(report.theta):
        print("Theta {} {} {} {} = {}".format(
            *key, print_canonical(report.theta[key], dec)))
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    failed = has_failure(results)
    if args.json:
        _print_json({
            "result": "fail" if failed else "pass",
            "checks": [
                {
                    "id": r.ident,
                    "anchor": r.anchor,
                    "expected": r.expected,
                    "computed": r.computed,
                    "status": r.status,
                }
                for r in results
            ],
        })
    else:
        for r in results:
            print(f"{r.status.upper():<5} {r.ident:<40} "
                  f"expected: {r.expected:<24} computed: {r.computed}")
        n = Counter(r.status for r in results)
        print(f"result: {'fail' if failed else 'pass'} "
              f"({n['pass']} passed, {n['fail']} failed, {n['info']} informational)")
    if failed:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# name, handler (looked up in this module when the command runs), help, and
# the operands in order; an operand's attribute is its name in lower case
_COMMANDS = (
    ("eval", "cmd_eval", "evaluate an expression and print its canonical form", ("EXPR",)),
    ("derive", "cmd_derive", "apply a basis derivation to an algebra element",
     ("INDEX", "EXPR")),
    ("d", "cmd_d", "apply the exterior differential to an expression", ("EXPR",)),
    ("levi-civita", "cmd_levi_civita", "solve for the Levi-Civita connection of a metric",
     ("METRIC_JSON",)),
    ("curvature", "cmd_curvature", "curvature tensor, Ricci and scalar for a metric",
     ("METRIC_JSON",)),
    ("verify-paper", "cmd_verify", "recompute the canonical identity table and report", ()),
)
# the operands that take only some texts: INDEX is the ASCII digit 1, 2 or 3
# (``int`` would also read "+2", "0_2" or "٢"), which cmd_derive converts
_OPERAND_TYPES = {"INDEX": {"choices": ("1", "2", "3")}}
# README § Exit codes: each rejection's exit code and stderr prefix
_REJECTIONS = {
    ParseError: (2, "parse error"),
    CapacityError: (3, "resource cap exceeded"),
    MetricError: (4, "invalid metric"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="cuntzgeo",
        description="Exact differential geometry on the Cuntz algebra O_3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document")
    common.add_argument("--decimal", action="store_true",
                        help="render terminating rationals as exact decimals")

    for name, handler, summary, operands in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=summary)
        for operand in operands:
            p.add_argument(operand.lower(), metavar=operand,
                           **_OPERAND_TYPES.get(operand, {}))
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not isinstance(getattr(args, "expr", ""), str):
        # argparse before CPython 3.12 drops every "--", so it can hand
        # "derive 2 -- --" an empty list for EXPR
        parser.error(f"{args.command}: argument EXPR: expected one argument")
    try:
        code = globals()[args.func](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 141
    except tuple(_REJECTIONS) as exc:
        code, prefix = next(v for cls, v in _REJECTIONS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 5


def _discard_stdout() -> None:
    """Point the stdout descriptor at os.devnull, so that what is still
    buffered does not fail again when the interpreter flushes it on exit."""
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # io.UnsupportedOperation: an in-process StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
