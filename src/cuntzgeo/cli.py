"""Command-line interface.

Subcommands:

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

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 resource
cap exceeded, 4 invalid metric, 5 internal error (any other exception,
reported as one ``internal error: <type>: <message>`` line on stderr), 141
stdout closed by its reader before all output was written (no message; a
shell reports 141 for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import AlgElem, CapacityError
from .calculus import OneForm, TwoForm, derive, differential
from .checks import has_failure, run_checks
from .curvature import curvature_report
from .exprs import ParseError, parse_alg, parse_expr, print_canonical, print_tensor
from .geometry import (
    MetricError,
    christoffel,
    levi_civita,
    load_metric,
    torsion,
    unitarity_residual,
)

_INDICES = (1, 2, 3)


def _tensor_doc(t, decimal: bool) -> list[dict]:
    return [
        {"index": list(idx), "value": print_canonical(c, decimal)}
        for idx, c in t.entries
    ]


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    value = parse_expr(args.expr)
    text = print_canonical(value, args.decimal)
    if isinstance(value, AlgElem):
        doc = {
            "kind": "algebra",
            "canonical": text,
            "terms": [
                {
                    "mu": list(m.mu),
                    "nu": list(m.nu),
                    "re": str(c.re),
                    "im": str(c.im),
                }
                for m, c in value.terms
            ],
        }
    elif isinstance(value, OneForm):
        doc = {
            "kind": "one-form",
            "canonical": text,
            "components": {
                f"e{i}": print_canonical(value.component(i), args.decimal)
                for i in _INDICES
            },
        }
    else:
        assert isinstance(value, TwoForm)
        doc = {
            "kind": "two-form",
            "canonical": text,
            "components": {
                "e12": print_canonical(value.component(1, 2), args.decimal),
                "e13": print_canonical(value.component(1, 3), args.decimal),
                "e23": print_canonical(value.component(2, 3), args.decimal),
            },
        }
    _emit(args, doc, [text])
    return 0


def cmd_derive(args) -> int:
    value = parse_alg(args.expr)
    result = derive(args.index, value)
    text = print_canonical(result, args.decimal)
    doc = {
        "kind": "algebra",
        "derivation": args.index,
        "canonical": text,
    }
    _emit(args, doc, [text])
    return 0


def cmd_d(args) -> int:
    value = parse_expr(args.expr)
    if isinstance(value, TwoForm):
        raise ParseError("d of a two-form is outside this calculus", 0)
    result = differential(value)
    text = print_canonical(result, args.decimal)
    degree = 1 if isinstance(result, OneForm) else 2
    doc = {
        "kind": "one-form" if degree == 1 else "two-form",
        "canonical": text,
    }
    _emit(args, doc, [text])
    return 0


def cmd_levi_civita(args) -> int:
    g = load_metric(args.metric)
    conn = levi_civita(g)
    gamma = christoffel(conn)
    tors = torsion(conn)
    residual = unitarity_residual(g, conn)
    dec = args.decimal

    lines = []
    for i in _INDICES:
        lines.append(f"nabla(e{i}) = {print_tensor(conn.value(i), dec)}")
    for key in sorted(gamma):
        lines.append("Gamma {} {} {} = {}".format(
            *key, print_canonical(gamma[key], dec)))
    for i in _INDICES:
        lines.append(f"torsion e{i} = {print_canonical(tors[i - 1], dec)}")
    for i in _INDICES:
        for j in _INDICES:
            lines.append(
                f"unitarity {i} {j} = "
                f"{print_canonical(residual[i - 1][j - 1], dec)}")

    doc = {
        "metric": [[print_canonical(g.entry(i, j), dec) for j in _INDICES]
                   for i in _INDICES],
        "connection": {
            f"e{i}": _tensor_doc(conn.value(i), dec) for i in _INDICES
        },
        "christoffel": [
            {"index": list(key), "value": print_canonical(gamma[key], dec)}
            for key in sorted(gamma)
        ],
        "torsion": {
            f"e{i}": print_canonical(tors[i - 1], dec) for i in _INDICES
        },
        "unitarity_residual": [
            [print_canonical(residual[i - 1][j - 1], dec) for j in _INDICES]
            for i in _INDICES
        ],
    }
    _emit(args, doc, lines)
    return 0


def cmd_curvature(args) -> int:
    g = load_metric(args.metric)
    report = curvature_report(g)
    dec = args.decimal

    lines = [f"scalar = {print_canonical(report.scalar, dec)}"]
    for a in _INDICES:
        for b in _INDICES:
            lines.append(
                f"Ric {a} {b} = {print_canonical(report.ric.entry(a, b), dec)}")
    for i in _INDICES:
        lines.append(f"R(e{i}) = {print_tensor(report.curv[i - 1], dec)}")
    for key in sorted(report.theta):
        lines.append("Theta {} {} {} {} = {}".format(
            *key, print_canonical(report.theta[key], dec)))

    doc = {
        "metric": [[print_canonical(g.entry(i, j), dec) for j in _INDICES]
                   for i in _INDICES],
        "scalar": print_canonical(report.scalar, dec),
        "ricci": _tensor_doc(report.ric, dec),
        "curvature": {
            f"e{i}": _tensor_doc(report.curv[i - 1], dec) for i in _INDICES
        },
        "theta": [
            {"index": list(key), "value": print_canonical(report.theta[key], dec)}
            for key in sorted(report.theta)
        ],
    }
    _emit(args, doc, lines)
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
    failed = has_failure(results)
    if args.json:
        doc = {
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
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            print(f"{r.status.upper():<5} {r.ident:<40} "
                  f"expected: {r.expected:<24} computed: {r.computed}")
        n_info = sum(1 for r in results if r.status == "info")
        n_fail = sum(1 for r in results if r.status == "fail")
        n_pass = sum(1 for r in results if r.status == "pass")
        print(f"result: {'fail' if failed else 'pass'} "
              f"({n_pass} passed, {n_fail} failed, {n_info} informational)")
    if failed:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an expression and print its canonical form")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derive", parents=[common],
                       help="apply a basis derivation to an algebra element")
    p.add_argument("index", metavar="INDEX", type=int, choices=(1, 2, 3))
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("d", parents=[common],
                       help="apply the exterior differential to an expression")
    p.add_argument("expr", metavar="EXPR")
    p.set_defaults(func=cmd_d)

    p = sub.add_parser("levi-civita", parents=[common],
                       help="solve for the Levi-Civita connection of a metric")
    p.add_argument("metric", metavar="METRIC_JSON")
    p.set_defaults(func=cmd_levi_civita)

    p = sub.add_parser("curvature", parents=[common],
                       help="curvature tensor, Ricci and scalar for a metric")
    p.add_argument("metric", metavar="METRIC_JSON")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="recompute the canonical identity table and report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MetricError as exc:
        print(f"invalid metric: {exc}", file=sys.stderr)
        return 4
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
