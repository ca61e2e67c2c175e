"""Seeded inputs, timed operations and exactness checks for the workloads.

Every workload hands out blocks of requests.  A block has a fixed
composition (metric classes and heights, term counts, command mix); the seed
only fills in entries, coefficients and words.  So each block does
comparable work, runs with different seeds stay comparable, and the share of
each request kind is exact whenever a run ends on a block boundary.

The program sees only the generated inputs: metric arrays of entry strings,
algebra elements built from term maps, and argv lists.  ``execute`` is the
timed part of a request; ``verify`` runs after the clock stops, checks the
result exactly and returns the size counters of its outputs.

The library functions that the tracer wraps are imported into this module's
namespace, and the algebra operators are reached through the small helpers
below, so that a traced run can put a span around each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import cuntzgeo.cli
from cuntzgeo.algebra import AlgElem, Monomial
from cuntzgeo.calculus import OneForm, TwoForm, d0, d1, derive
from cuntzgeo.checks import run_checks
from cuntzgeo.curvature import (
    curvature,
    curvature_operator,
    curvature_report,
    ricci,
    scalar_curvature,
)
from cuntzgeo.exprs import parse_expr, print_canonical
from cuntzgeo.geometry import (
    christoffel,
    levi_civita,
    load_metric,
    torsion,
    unitarity_residual,
)
from cuntzgeo.scalars import GScalar, ZERO

_INDICES = (1, 2, 3)


class CheckFailed(Exception):
    """A result differs from what the library or the maths says it must be."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Request:
    kind: str
    descriptor: dict
    payload: object


@dataclass(frozen=True)
class Sizes:
    """Exact size counters of one request's outputs."""

    max_coeff_bits: int = 0
    out_terms: int = 0
    max_word_len: int = 0


# -- traced call sites for the algebra operators -----------------------------

def mul(a, b):
    return a * b


def add(a, b):
    return a + b


def adjoint(a):
    return a.adjoint()


def equals(a, b):
    return a.equals(b)


def cli_main(argv):
    return cuntzgeo.cli.main(argv)


# -- output sizes --------------------------------------------------------------

def _elems(x):
    """The algebra elements inside an output value."""
    if isinstance(x, AlgElem):
        yield x
    elif isinstance(x, (OneForm, TwoForm)):
        yield from x.c
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _elems(item)
    elif isinstance(x, dict):
        yield from _elems(list(x.values()))
    elif hasattr(x, "entries"):  # TensorElem
        for _, c in x.entries:
            yield c


def measure(*outputs) -> Sizes:
    bits = terms = word = 0
    for a in _elems(outputs):
        terms += len(a.terms)
        for m, c in a.terms:
            word = max(word, len(m.mu), len(m.nu))
            bits = max(bits, abs(c.re.numerator).bit_length(),
                       c.re.denominator.bit_length(),
                       abs(c.im.numerator).bit_length(),
                       c.im.denominator.bit_length())
    return Sizes(bits, terms, word)


# -- seeded building blocks ----------------------------------------------------

def block_rng(workload: str, seed: int, block: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED, and each block's inputs do not depend on earlier blocks.
    return random.Random(f"{workload}:{seed}:{block}")


def _rational(rng: random.Random, bits: int) -> Fraction:
    """A nonzero rational whose numerator and denominator fit in ``bits``."""
    top = (1 << bits) - 1
    num = rng.randint(1, top) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, top))


def _det3(m) -> tuple[Fraction, Fraction]:
    """Determinant of a 3x3 matrix of (re, im) pairs."""
    def mul2(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def sub2(a, b):
        return (a[0] - b[0], a[1] - b[1])

    total = (Fraction(0), Fraction(0))
    for j, sign in ((0, 1), (1, -1), (2, 1)):
        k, l = [c for c in range(3) if c != j]
        minor = sub2(mul2(m[1][k], m[2][l]), mul2(m[1][l], m[2][k]))
        term = mul2(m[0][j], minor)
        total = (total[0] + sign * term[0], total[1] + sign * term[1])
    return total


def _entry_text(re_part: Fraction, im_part: Fraction) -> str:
    if not im_part:
        return str(re_part)
    op = "-" if im_part < 0 else "+"
    return f"{re_part} {op} {abs(im_part)}i"


METRIC_CLASSES = ("diagonal", "dense", "complex", "indefinite")


def random_metric(rng: random.Random, cls: str, bits: int) -> list[list[str]]:
    """A symmetric invertible 3x3 metric of the given class, as entry strings.

    Diagonal metrics have positive entries; dense and complex metrics have
    every entry nonzero (complex entries have nonzero imaginary parts);
    indefinite metrics are dense real with g11 < 0 < g22.
    """
    while True:
        m = [[(Fraction(0), Fraction(0))] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                if cls == "diagonal" and i != j:
                    continue
                re_part = _rational(rng, bits)
                im_part = _rational(rng, bits) if cls == "complex" else Fraction(0)
                if cls == "diagonal" or (cls == "indefinite" and i == j):
                    re_part = abs(re_part)
                if cls == "indefinite" and i == j == 0:
                    re_part = -re_part
                m[i][j] = m[j][i] = (re_part, im_part)
        if _det3(m) != (0, 0):
            return [[_entry_text(*m[i][j]) for j in range(3)] for i in range(3)]


def _word(rng: random.Random, max_len: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 3) for _ in range(rng.randint(0, max_len)))


def word_len(*elems: AlgElem) -> int:
    """The longest word in the given elements."""
    return max((len(w) for a in elems for m, _ in a.terms for w in (m.mu, m.nu)),
               default=0)


def _coefficient(rng: random.Random) -> GScalar:
    return GScalar(Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 8)),
                   Fraction(0))


def random_terms(rng: random.Random, n: int, max_len: int) -> dict[Monomial, GScalar]:
    """n distinct monomials with small nonzero rational coefficients and no
    complete equal-coefficient family, so that summing the terms in any order
    gives the same canonical form."""
    while True:
        terms: dict[Monomial, GScalar] = {}
        while len(terms) < n:
            terms[Monomial(_word(rng, max_len), _word(rng, max_len))] = _coefficient(rng)
        if len(AlgElem.from_terms(terms).terms) == n:
            return terms


def profiled_terms(rng: random.Random, n: int, max_len: int) -> dict[Monomial, GScalar]:
    """n monomials whose (|mu|, |nu|) length pairs are spread evenly over the
    grid 0..max_len squared, one monomial per pair; letters and coefficients
    are random.  How many terms a product of two elements keeps depends mostly
    on their word lengths, so fixing the length profile keeps the cost of the
    calculus-mix requests steady from seed to seed."""
    grid = [(a, b) for a in range(max_len + 1) for b in range(max_len + 1)]
    if n > len(grid):
        raise ValueError(f"at most {len(grid)} terms for words up to {max_len}")
    pairs = (grid[k * len(grid) // n] for k in range(n))
    return {Monomial(tuple(rng.randint(1, 3) for _ in range(a)),
                     tuple(rng.randint(1, 3) for _ in range(b))): _coefficient(rng)
            for a, b in pairs}


# -- geometry-sweep --------------------------------------------------------------

class GeometrySweep:
    """One distinct seeded metric per request, through the library pipeline."""

    name = "geometry-sweep"
    heights = (2, 8, 32)
    min_blocks = 9  # 108 latency samples

    def block(self, seed: int, b: int) -> list[Request]:
        rng = block_rng(self.name, seed, b)
        return [Request("metric", {"class": cls, "height_bits": h},
                        random_metric(rng, cls, h))
                for cls in METRIC_CLASSES for h in self.heights]

    def warmup(self) -> None:
        self.execute(Request("metric", {}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def execute(self, req: Request):
        g = load_metric(req.payload)
        conn = levi_civita(g)
        gamma = christoffel(conn)
        tors = torsion(conn)
        resid = unitarity_residual(g, conn)
        curv = curvature(conn)
        ric = ricci(curvature_operator(curv))
        scal = scalar_curvature(g, ric)
        texts = [print_canonical(scal)] + [
            print_canonical(ric.entry(a, b)) for a in _INDICES for b in _INDICES]
        return gamma, tors, resid, curv, ric, scal, texts

    def verify(self, req: Request, out) -> Sizes:
        gamma, tors, resid, curv, ric, scal, texts = out
        _require(all(t.equals(TwoForm.zero()) for t in tors), "torsion is not zero")
        _require(all(r.equals(OneForm.zero()) for row in resid for r in row),
                 "unitarity residual is not zero")
        _require(all(ric.entry(a, b).equals(ric.entry(b, a))
                     for a in _INDICES for b in _INDICES if a < b),
                 "Ricci is not symmetric")
        _require(reparse(texts[0], scal) == scal, "printed Scal does not re-parse")
        return measure(gamma, curv, ric, scal)


# -- calculus-mix ----------------------------------------------------------------

class CalculusMix:
    """Seeded algebra elements through products, derivations and d0/d1.

    Each (x, y) pair gives five build requests, one operation each, and one
    decide request; a block has one pair at each term count.
    """

    name = "calculus-mix"
    term_counts = (4, 6, 9, 12)
    builds = ("mul", "adjoint", "derive", "d0", "d1")
    max_word_len = 4
    min_blocks = 5  # 120 latency samples

    def block(self, seed: int, b: int) -> list[Request]:
        rng = block_rng(self.name, seed, b)
        out = []
        for n in self.term_counts:
            x = AlgElem.from_terms(profiled_terms(rng, n, self.max_word_len))
            y = AlgElem.from_terms(profiled_terms(rng, n, self.max_word_len))
            i = rng.randint(1, 3)
            for op in (*self.builds, "equals"):
                kind = "decide" if op == "equals" else "build"
                out.append(Request(kind, {"kind": kind, "op": op, "terms": n,
                                          "word_len": word_len(x, y)},
                                   (op, x, y, i)))
        return out

    def warmup(self) -> None:
        s = AlgElem.generator(1)
        for op in (*self.builds, "equals"):
            self.execute(Request("", {}, (op, s, s.adjoint(), 2)))

    def execute(self, req: Request):
        op, x, y, i = req.payload
        if op == "mul":
            return mul(x, y)
        if op == "adjoint":
            return adjoint(x)
        if op == "derive":
            return derive(i, x)
        if op == "d0":
            return d0(x)
        if op == "d1":
            return d1(mul(x, d0(y)))
        lhs = d0(mul(x, y))
        rhs = add(mul(d0(x), y), mul(x, d0(y)))
        return equals(lhs, rhs), lhs, rhs

    def verify(self, req: Request, out) -> Sizes:
        op, x, y, i = req.payload
        if op == "mul":
            _require(out.adjoint().equals(y.adjoint() * x.adjoint()),
                     "(xy)* differs from y* x*")
        elif op == "adjoint":
            _require(out.adjoint() == x, "adjoint is not an involution")
        elif op == "derive":
            _require(derive(i, x * y).equals(out * y + x * derive(i, y)),
                     "derive breaks the Leibniz rule")
        elif op == "d0":
            _require(d1(out).equals(TwoForm.zero()), "d1(d0(x)) is not zero")
        elif op == "d1":
            _require(out.equals(d0(x) * d0(y)), "d1(x d0(y)) differs from d0(x) d0(y)")
        else:
            ok, lhs, rhs = out
            _require(ok is True, "Leibniz identity for d0 not decided equal")
            out = (lhs, rhs)
        return measure(out)


# -- cli-text --------------------------------------------------------------------

_DECIMAL = re.compile(r"(\d+)\.(\d+)")
_SEPARATOR = re.compile(r"[()]| [+-] ")
_FORM_GROUP = re.compile(r"(e\d+) \((.*)\)")
_LABELS = {OneForm: ("e1", "e2", "e3"), TwoForm: ("e12", "e13", "e23")}


def _split_terms(text: str) -> list[tuple[int, str]]:
    """(sign, body) for each top-level term of a canonical sum."""
    sign, start = (-1, 2) if text.startswith("- ") else (1, 0)
    out, depth = [], 0
    for m in _SEPARATOR.finditer(text, start):
        tok = m.group()
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0:
            out.append((sign, text[start:m.start()]))
            sign, start = (1 if tok[1] == "+" else -1), m.end()
    out.append((sign, text[start:]))
    return out


def reparse(text: str, like):
    """Parse canonical output back into a value of the same type as ``like``.

    Each top-level term goes through the library parser on its own and the
    terms are summed once.  parse_expr on the whole text would re-canonicalize
    the accumulator at every '+', which is quadratic in the term count; the
    printed form has no complete equal-coefficient family, so both give the
    same canonical value.  ``--decimal`` output is turned back into fractions
    first.
    """
    text = _DECIMAL.sub(lambda m: f"{m[1]}{m[2]}/{10 ** len(m[2])}", text)
    acc: dict[str, dict[Monomial, GScalar]] = {}
    for sign, body in _split_terms(text):
        group = _FORM_GROUP.fullmatch(body)
        if group:
            parts = {group[1]: reparse(group[2], AlgElem.zero())}
        else:
            value = parse_expr(body)
            if isinstance(value, AlgElem):
                parts = {"": value}
            else:
                parts = dict(zip(_LABELS[type(value)], value.c))
        for label, a in parts.items():
            target = acc.setdefault(label, {})
            for m, c in a.terms:
                target[m] = target.get(m, ZERO) + (c if sign > 0 else -c)
    if isinstance(like, AlgElem):
        _require(set(acc) <= {""}, "expected an algebra element")
        return AlgElem.from_terms(acc.get("", {}))
    labels = _LABELS[type(like)]
    _require(set(acc) <= set(labels) | {""} and not acc.get(""),
             "printed form has the wrong degree")
    return type(like)(tuple(AlgElem.from_terms(acc.get(l, {})) for l in labels))


def _text_of(terms: dict[Monomial, GScalar], rng: random.Random) -> str:
    """Non-canonical input text for a term map: shuffled order, generators
    spelled out, an occasional explicit '.' product."""
    items = list(terms.items())
    rng.shuffle(items)
    parts = []
    for m, c in items:
        factors = [f"S{l}" for l in m.mu] + [f"S{l}*" for l in reversed(m.nu)]
        joiner = " . " if rng.random() < 0.2 else " "
        coeff = str(abs(c.re))
        body = joiner.join([coeff] + factors) if factors else coeff
        parts.append(("- " if c.re < 0 else "+ ") + body)
    return " ".join(parts).removeprefix("+ ")


@dataclass
class CliCall:
    argv: list[str]
    expect_code: int
    expected: object = None     # the library's result for a text command
    metric: list | None = None  # the rows written to the metric file in argv


class CliText:
    """In-process ``cuntzgeo.cli.main(argv)`` with stdout and stderr captured."""

    name = "cli-text"
    text_kinds = ("eval", "derive", "d")
    # Term counts: a 30-point log-uniform grid from 9 to 729, dealt out to
    # the kinds in turn, so each kind spans the range with 10 sizes and no
    # two texts of a block share a size.  Neighbouring sizes differ by 16%,
    # so the latency percentiles fall in a dense part of the distribution.
    text_sizes = tuple(round(9 * 81 ** (m / 29)) for m in range(30))
    max_word_len = 3
    # flags of the ten texts of one kind, assigned to sizes in seeded order
    flag_mix = ((), (), (), (), ("--json",), ("--json",), ("--json",),
                ("--decimal",), ("--decimal",), ("--json", "--decimal"))
    verify_paper = 2
    curvature_files = 3
    rejections = ("parse", "word-cap", "singular-metric")
    # ROADMAP item 3 inputs; both must be rejected as parse errors (exit 2)
    defects = ("nested-parens", "long-literal")
    min_blocks = 3  # 114 latency samples; the 2 defect inputs of a block fail

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.paper = None

    def _metric_file(self, seed: int, b: int, k, rows) -> Path:
        path = self.workdir / f"metric-{seed}-{b}-{k}.json"
        path.write_text(json.dumps(rows))
        return path

    def block(self, seed: int, b: int) -> list[Request]:
        rng = block_rng(self.name, seed, b)
        out = []
        for j, kind in enumerate(self.text_kinds):
            flags = list(self.flag_mix)
            rng.shuffle(flags)
            for n, flag in zip(self.text_sizes[j::3], flags):
                terms = random_terms(rng, n, self.max_word_len)
                elem = AlgElem.from_terms(terms)
                argv = [kind]
                if kind == "derive":
                    i = rng.randint(1, 3)
                    argv.append(str(i))
                    expected = derive(i, elem)
                elif kind == "d":
                    expected = d0(elem)
                else:
                    expected = elem
                argv += [*flag, _text_of(terms, rng)]
                out.append(Request(kind, {"command": kind, "terms": n,
                                          "word_len": word_len(elem),
                                          "flags": list(flag)},
                                   CliCall(argv, 0, expected)))
        for k in range(self.verify_paper):
            flag = ["--json"] if k % 2 else []
            out.append(Request("verify-paper", {"command": "verify-paper", "flags": flag},
                               CliCall(["verify-paper", *flag], 0)))
        for k in range(self.curvature_files):
            cls = rng.choice(METRIC_CLASSES)
            rows = random_metric(rng, cls, 2)
            path = self._metric_file(seed, b, k, rows)
            out.append(Request("curvature", {"command": "curvature", "class": cls,
                                             "height_bits": 2, "flags": ["--json"]},
                               CliCall(["curvature", "--json", str(path)], 0,
                                       metric=rows)))
        for cls in self.rejections:
            out.append(Request("reject", {"command": "reject", "class": cls},
                               self._rejection(rng, seed, b, cls)))
        for cls in self.defects:
            if cls == "nested-parens":
                text = "(" * 2000 + f"S{rng.randint(1, 3)}" + ")" * 2000
            else:
                text = str(rng.randint(1, 9)) + "".join(
                    rng.choice("0123456789") for _ in range(4999))
            out.append(Request("reject", {"command": "reject", "class": cls},
                               CliCall(["eval", text], 2)))
        return out

    def _rejection(self, rng: random.Random, seed: int, b: int, cls: str) -> CliCall:
        if cls == "parse":
            text = rng.choice(("S1 + * S2", "S4 S1", "(S1 + S2", "3/0 S1",
                               "1.5 S2", "S1 S2 )", "e12 e1"))
            return CliCall(["eval", text], 2)
        if cls == "word-cap":
            letters = rng.randint(17, 20)
            return CliCall(["eval", " ".join(f"S{rng.randint(1, 3)}"
                                             for _ in range(letters))], 3)
        # symmetric, with the second row k times the first
        k, c = _rational(rng, 4), _rational(rng, 4)
        rows = [["1", str(k), "0"], [str(k), str(k * k), "0"], ["0", "0", str(c)]]
        path = self._metric_file(seed, b, "singular", rows)
        return CliCall(["curvature", str(path)], 4, metric=rows)

    def warmup(self) -> None:
        self.paper = run_checks()
        self.execute(Request("eval", {}, CliCall(["eval", "S1* S1"], 0)))

    def execute(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(req.payload.argv)
        return code, out.getvalue(), err.getvalue()

    def verify(self, req: Request, result) -> Sizes:
        call: CliCall = req.payload
        code, out, err = result
        _require(code == call.expect_code,
                 f"exit code {code}, expected {call.expect_code}")
        if call.expect_code != 0:
            prefix = {2: "parse error:", 3: "resource cap exceeded:",
                      4: "invalid metric:"}[call.expect_code]
            _require(err.startswith(prefix), f"stderr does not start with {prefix!r}")
            return Sizes()
        if req.kind == "verify-paper":
            return self._verify_paper(call, out)
        if req.kind == "curvature":
            doc = json.loads(out)
            report = curvature_report(load_metric(call.metric))
            _require(reparse(doc["scalar"], report.scalar) == report.scalar,
                     "printed scalar curvature differs")
            for item in doc["ricci"]:
                entry = report.ric.entry(*item["index"])
                _require(reparse(item["value"], entry) == entry,
                         "printed Ricci entry differs")
            _require(len(doc["ricci"]) == len(report.ric.entries),
                     "Ricci entry count differs")
            _require(len(doc["theta"]) == len(report.theta),
                     "curvature operator entry count differs")
            return measure(report.scalar, report.ric, report.curv)
        if "--json" in call.argv:
            doc = json.loads(out)
            text = doc["canonical"]
            if req.kind == "eval":
                _require(len(doc["terms"]) == len(call.expected.terms),
                         "JSON term list length differs")
        else:
            text = out.rstrip("\n")
            _require("\n" not in text, "text output is not one line")
        _require(reparse(text, call.expected) == call.expected,
                 "printed output does not re-parse to the library result")
        return measure(call.expected)

    def _verify_paper(self, call: CliCall, out: str) -> Sizes:
        expected = [(r.ident, r.computed, r.status) for r in self.paper]
        if "--json" in call.argv:
            doc = json.loads(out)
            _require(doc["result"] == "pass", "verify-paper did not pass")
            got = [(c["id"], c["computed"], c["status"]) for c in doc["checks"]]
            _require(got == expected, "verify-paper table differs")
        else:
            lines = out.rstrip("\n").split("\n")
            _require(len(lines) == len(expected) + 1, "verify-paper line count differs")
            for line, (ident, computed, status) in zip(lines, expected):
                _require(line.split()[:2] == [status.upper(), ident]
                         and line.endswith(f"computed: {computed}"),
                         f"verify-paper line differs: {line}")
            _require(lines[-1].startswith("result: pass"), "verify-paper did not pass")
        return Sizes()


def make(name: str, workdir: Path):
    if name == GeometrySweep.name:
        return GeometrySweep()
    if name == CalculusMix.name:
        return CalculusMix()
    if name == CliText.name:
        return CliText(workdir)
    raise KeyError(name)


NAMES = (GeometrySweep.name, CalculusMix.name, CliText.name)
