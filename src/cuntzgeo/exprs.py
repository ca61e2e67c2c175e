"""Text format for algebra elements and forms: parsing and canonical printing.

Grammar (whitespace separates juxtaposed factors; ``.`` is an optional
explicit product):

    expr    := ('+' | '-')? term (('+' | '-') term)*
    term    := factor (('.')? factor)*
    factor  := scalar | gen | form | 'd' '(' expr ')' | '(' expr ')'
    gen     := ('S1' | 'S2' | 'S3') '*'?
    form    := 'e1' | 'e2' | 'e3' | 'e12' | 'e13' | 'e23'
    scalar  := INT ('/' INT)? 'i'?  |  'i'

``*`` is only the postfix adjoint; division exists only inside scalar
literals.  Parse and evaluation problems raise :class:`ParseError` carrying
the character offset — they never abort the process.  That includes input
beyond the parser's bounds: groups and ``d(...)`` nested deeper than
``MAX_NESTING``, and integer literals longer than ``MAX_LITERAL_DIGITS``.

Canonical printing orders monomials by (|nu|, nu, |mu|, mu), puts scalar
coefficients on the left of basis symbols and algebra coefficients on the
right (parenthesized when they have several terms), and always emits text
that parses back to the same canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElem, Monomial
from .calculus import OneForm, TwoForm, WEDGE_PAIRS, d0, d1
from .scalars import GScalar, I


# Each level of nesting costs the recursive-descent parser three stack
# frames; 100 levels stay well inside Python's default recursion limit.
MAX_NESTING = 100
# CPython's default cap on int-from-string conversion; Python 3.10 has none.
MAX_LITERAL_DIGITS = 4300


class ParseError(ValueError):
    """A diagnostic for malformed or ill-typed expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    pos: int
    value: object = None


_WS = re.compile(r"\s+")
_NUM = re.compile(r"(\d+)(?:/(\d+))?(i?)")
_FORM = re.compile(r"e(12|13|23|[123])")
_GEN = re.compile(r"S([123])")
_PUNCT = {"(": "lparen", ")": "rparen", "+": "plus", "-": "minus",
          "*": "star", ".": "dot"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        ws = _WS.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        m = _FORM.match(text, pos)
        if m:
            digits = m.group(1)
            if len(digits) == 1:
                tokens.append(_Token("form1", pos, int(digits)))
            else:
                tokens.append(_Token("form2", pos, (int(digits[0]), int(digits[1]))))
            pos = m.end()
            continue
        m = _GEN.match(text, pos)
        if m:
            tokens.append(_Token("gen", pos, int(m.group(1))))
            pos = m.end()
            continue
        m = _NUM.match(text, pos)
        if m:
            num, den, imag = m.groups()
            if max(len(num), len(den or "")) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", pos)
            if den is not None and int(den) == 0:
                raise ParseError("zero denominator in scalar", pos)
            fr = Fraction(int(num), int(den)) if den is not None else Fraction(int(num))
            value = GScalar(Fraction(0), fr) if imag else GScalar(fr, Fraction(0))
            tokens.append(_Token("num", pos, value))
            pos = m.end()
            continue
        ch = text[pos]
        if ch == "i":
            tokens.append(_Token("num", pos, I))
            pos += 1
            continue
        if ch == "d":
            tokens.append(_Token("d", pos))
            pos += 1
            continue
        if ch in _PUNCT:
            if (ch == "." and pos + 1 < len(text) and text[pos + 1].isdigit()
                    and pos > 0 and text[pos - 1].isdigit()):
                raise ParseError(
                    "decimal literals are not supported; use an exact fraction "
                    "like 3/2", pos)
            tokens.append(_Token(_PUNCT[ch], pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("eof", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Node:
    pos: int


@dataclass(frozen=True)
class Lit(_Node):
    value: GScalar


@dataclass(frozen=True)
class Gen(_Node):
    index: int
    star: bool


@dataclass(frozen=True)
class Form1(_Node):
    index: int


@dataclass(frozen=True)
class Form2(_Node):
    pair: tuple[int, int]


@dataclass(frozen=True)
class Diff(_Node):
    arg: _Node


@dataclass(frozen=True)
class Prod(_Node):
    factors: tuple[_Node, ...]


@dataclass(frozen=True)
class Sum(_Node):
    items: tuple[tuple[int, _Node], ...]


_FACTOR_START = {"num", "gen", "form1", "form2", "d", "lparen"}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.take()

    def parse_expr(self) -> _Node:
        start = self.peek().pos
        items: list[tuple[int, _Node]] = []
        sign = 1
        if self.peek().kind in ("plus", "minus"):
            sign = -1 if self.take().kind == "minus" else 1
        items.append((sign, self.parse_term()))
        while self.peek().kind in ("plus", "minus"):
            sign = -1 if self.take().kind == "minus" else 1
            items.append((sign, self.parse_term()))
        if len(items) == 1 and items[0][0] == 1:
            return items[0][1]
        return Sum(start, tuple(items))

    def parse_term(self) -> _Node:
        start = self.peek().pos
        factors = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok.kind == "dot":
                self.take()
                factors.append(self.parse_factor())
                continue
            if tok.kind in _FACTOR_START:
                factors.append(self.parse_factor())
                continue
            if tok.kind == "star":
                raise ParseError("adjoint '*' may only follow a generator", tok.pos)
            break
        if len(factors) == 1:
            return factors[0]
        return Prod(start, tuple(factors))

    def parse_factor(self) -> _Node:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Lit(tok.pos, tok.value)
        if tok.kind == "gen":
            self.take()
            star = False
            if self.peek().kind == "star":
                self.take()
                star = True
            return Gen(tok.pos, tok.value, star)
        if tok.kind == "form1":
            self.take()
            return Form1(tok.pos, tok.value)
        if tok.kind == "form2":
            self.take()
            return Form2(tok.pos, tok.value)
        if tok.kind == "d":
            self.take()
            self.expect("lparen", "'(' after 'd'")
            return Diff(tok.pos, self.parse_group(tok.pos))
        if tok.kind == "lparen":
            self.take()
            return self.parse_group(tok.pos)
        raise ParseError("expected a scalar, generator, form symbol, d(...) or group",
                         tok.pos)

    def parse_group(self, pos: int) -> _Node:
        """The expression after an opening '(' and its closing ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self.parse_expr()
        self.expect("rparen", "closing ')'")
        self.depth -= 1
        return inner


def _parse_ast(text: str) -> _Node:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("unexpected trailing input", tok.pos)
    return node


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

Value = "AlgElem | OneForm | TwoForm"


def _degree(v) -> int:
    if isinstance(v, AlgElem):
        return 0
    if isinstance(v, OneForm):
        return 1
    return 2


def _eval(node: _Node, mode: str | None):
    if isinstance(node, Lit):
        return AlgElem.scalar(node.value)
    if isinstance(node, Gen):
        g = AlgElem.generator(node.index)
        return g.adjoint() if node.star else g
    if isinstance(node, Form1):
        if mode == "alg":
            raise ParseError("one-form symbol in algebra context", node.pos)
        return OneForm.basis(node.index)
    if isinstance(node, Form2):
        if mode == "alg":
            raise ParseError("two-form symbol in algebra context", node.pos)
        if mode == "one":
            raise ParseError("two-form symbol in one-form context", node.pos)
        return TwoForm.basis(*node.pair)
    if isinstance(node, Diff):
        inner = _eval(node.arg, mode)
        deg = _degree(inner)
        if deg == 0:
            return d0(inner)
        if deg == 1:
            return d1(inner)
        raise ParseError("d of a two-form is outside this calculus", node.pos)
    if isinstance(node, Prod):
        acc = None
        for factor in node.factors:
            val = _eval(factor, mode)
            if acc is None:
                acc = val
                continue
            if _degree(acc) + _degree(val) > 2:
                raise ParseError("product exceeds form degree 2", factor.pos)
            acc = acc * val
        return acc
    if isinstance(node, Sum):
        acc = None
        for sign, item in node.items:
            val = _eval(item, mode)
            if sign < 0:
                val = -val
            if acc is None:
                acc = val
            elif _degree(acc) != _degree(val):
                raise ParseError("cannot add terms of different degree", item.pos)
            else:
                acc = acc + val
        return acc
    raise AssertionError(f"unhandled node {node!r}")


def parse_expr(text: str):
    """Parse and evaluate; result is an AlgElem, OneForm or TwoForm."""
    return _eval(_parse_ast(text), None)


def parse_alg(text: str) -> AlgElem:
    """Parse text that must denote an algebra element."""
    return _eval(_parse_ast(text), "alg")


def parse_one_form(text: str) -> OneForm:
    """Parse text that must denote a one-form (e_i symbols and d(algebra))."""
    value = _eval(_parse_ast(text), "one")
    if isinstance(value, AlgElem):
        raise ParseError("expected a one-form, got an algebra element", 0)
    if not isinstance(value, OneForm):
        raise ParseError("expected a one-form, got a two-form", 0)
    return value


def parse_scalar(text: str) -> GScalar:
    """Parse text that must denote a scalar multiple of the identity."""
    value = parse_alg(text)
    c = value.as_scalar()
    if c is None:
        raise ParseError("expected a scalar", 0)
    return c


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------

def _frac_text(fr: Fraction, decimal: bool) -> str:
    if not decimal or fr.denominator == 1:
        return str(fr)
    den = fr.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(fr)  # no finite decimal expansion; stay exact
    k = max(twos, fives)
    scaled = fr.numerator * 10**k // fr.denominator
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled)
    return f"{sign}{digits // 10**k}.{digits % 10**k:0{k}d}"


def _sign_mag(c: GScalar) -> tuple[int, GScalar] | None:
    """(sign, magnitude) for pure-real or pure-imaginary scalars, else None."""
    if c.im == 0:
        return (1, c) if c.re >= 0 else (-1, -c)
    if c.re == 0:
        return (1, c) if c.im >= 0 else (-1, -c)
    return None


def _mag_text(mag: GScalar, decimal: bool) -> str:
    """Standalone text of a nonneg pure-real or pure-imaginary magnitude."""
    if mag.im == 0:
        return _frac_text(mag.re, decimal)
    if mag.im == 1:
        return "i"
    return _frac_text(mag.im, decimal) + "i"


def _mixed_text(c: GScalar, decimal: bool) -> str:
    sign, im_mag = _sign_mag(GScalar(Fraction(0), c.im))
    op = "-" if sign < 0 else "+"
    return f"{_frac_text(c.re, decimal)} {op} {_mag_text(im_mag, decimal)}"


def _mono_text(m: Monomial) -> str:
    parts = [f"S{letter}" for letter in m.mu]
    parts.extend(f"S{letter}*" for letter in reversed(m.nu))
    return " ".join(parts)


def _term(c: GScalar, symbol: str, decimal: bool) -> tuple[int, str]:
    """(sign, body) of the term ``c * symbol``; an empty symbol is the unit."""
    sm = _sign_mag(c)
    if sm is None:
        body = f"({_mixed_text(c, decimal)})"
        return 1, f"{body} {symbol}" if symbol else body
    sign, mag = sm
    if not symbol:
        return sign, _mag_text(mag, decimal)
    if mag.im == 0 and mag.re == 1:
        return sign, symbol
    return sign, _mag_text(mag, decimal) + " " + symbol


def _join_terms(parts: list[tuple[int, str]]) -> str:
    out = []
    for k, (sign, body) in enumerate(parts):
        if k == 0:
            out.append(("- " if sign < 0 else "") + body)
        else:
            out.append((" + " if sign > 0 else " - ") + body)
    return "".join(out)


def _alg_text(x: AlgElem, decimal: bool) -> str:
    if not x.terms:
        return "0"
    return _join_terms([_term(c, _mono_text(m), decimal) for m, c in x.terms])


def _form_term(label: str, a: AlgElem, decimal: bool) -> tuple[int, str]:
    if len(a.terms) == 1:
        m, c = a.terms[0]
        return _term(c, label if m.is_unit else f"{label} {_mono_text(m)}", decimal)
    return 1, f"{label} ({_alg_text(a, decimal)})"


def _form_text(labels: tuple[str, ...], coeffs, decimal: bool) -> str:
    parts = [
        _form_term(label, a, decimal)
        for label, a in zip(labels, coeffs)
        if not a.is_zero()
    ]
    if not parts:
        return "0"
    return _join_terms(parts)


_ONE_LABELS = ("e1", "e2", "e3")
_TWO_LABELS = tuple(f"e{i}{j}" for i, j in WEDGE_PAIRS)


def print_canonical(x, decimal: bool = False) -> str:
    """Deterministic text for scalars, algebra elements and forms."""
    if isinstance(x, GScalar):
        return _alg_text(AlgElem.scalar(x), decimal)
    if isinstance(x, AlgElem):
        return _alg_text(x, decimal)
    if isinstance(x, OneForm):
        return _form_text(_ONE_LABELS, x.c, decimal)
    if isinstance(x, TwoForm):
        return _form_text(_TWO_LABELS, x.c, decimal)
    raise TypeError(f"cannot print {type(x).__name__}")


def print_tensor(t, decimal: bool = False) -> str:
    """Display text for tensors; entries read ``e_a(x)e_b`` with the usual
    coefficient placement.  (Display only — tensors are not in the grammar.)"""
    labels = tuple("(x)".join(f"e{i}" for i in idx) for idx, _ in t.entries)
    return _form_text(labels, [c for _, c in t.entries], decimal)
