"""Text format for algebra elements and forms: parsing and canonical printing.

Grammar (whitespace separates juxtaposed factors; ``.`` is an optional
explicit product):

    expr    := ('+' | '-')? term (('+' | '-') term)*
    term    := factor (('.')? factor)*
    factor  := scalar | run | form | 'd' '(' expr ')' | '(' expr ')'
    run     := gen (('.')? gen)*
    gen     := ('S1' | 'S2' | 'S3') '*'?
    form    := 'e1' | 'e2' | 'e3' | 'e12' | 'e13' | 'e23'
    scalar  := INT ('/' INT)? 'i'?  |  'i'

``*`` is only the postfix adjoint; division exists only inside scalar
literals.  One regular expression scans the whole text into tokens.  A run
of generator letters (adjacent, or separated by whitespace or one ``.``) is
one token that carries the monomial of each letter; a letter takes a
following ``*`` (whitespace may come between) as its adjoint.  There are six
letter monomials, built once in a table (``_LETTERS``) that every run shares,
so a letter costs a lookup and no new object, and a parse keeps no
per-letter objects alive.  The tokens
are then parsed and evaluated in one recursive-descent pass that folds sums
and multiplies products left to right.  A sum folds into one mutable
accumulator (one per component for forms) that touches only each summand's
terms and ends in the left fold's result exactly, so parsing takes time
linear in the number of summands.  A run multiplies in letter by letter as
one word (``_times_run``), so a written word costs no element product, and
a run after a scalar starts from its first letter.
Problems raise :class:`ParseError` carrying the character offset — they
never abort the process.  That includes input beyond the parser's bounds:
groups and ``d(...)`` nested deeper than ``MAX_NESTING``, and integer
literals longer than ``MAX_LITERAL_DIGITS``.  Lexical faults come first;
syntax, context and degree faults and resource caps (``CapacityError``)
follow in the order the parser reaches them.

A number token is one scalar triple, built by ``scalars._norm`` from its
integers.

Canonical printing orders monomials by (|nu|, nu, |mu|, mu), puts scalar
coefficients on the left of basis symbols and algebra coefficients on the
right (parenthesized when they have several terms), and always emits text
that parses back to the same canonical form.  One loop writes each term
with its sign in front (`` + `` or `` - ``), from tables of the letter
texts, and one join drops or shortens the first sign.  It reads each
coefficient's triple (a, b, d); a real or an imaginary scalar is in lowest
terms already, since gcd(a, b, d) = 1, so only a scalar with two nonzero
parts takes a gcd for each part.
"""

from __future__ import annotations

__all__ = [
    "ParseError",
    "parse_alg",
    "parse_expr",
    "parse_scalar",
    "print_canonical",
    "print_tensor",
]

import re
from math import gcd

from .algebra import _UNIT, AlgElem, Monomial, _Sum, _mul_monomials
from .calculus import OneForm, TwoForm, d0, d1
from .scalars import GScalar, I, ONE, _norm


# Each level of nesting costs the recursive-descent parser four stack
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

# The name of the alternative that matched is the token kind.  Digits are
# ASCII 0-9 (``\d`` would match any Unicode decimal digit, such as '٣'); a
# ``.`` between two of them is a decimal literal; any other character is
# unexpected.
_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<gen>S[123](?:\s*\*)?(?:\s*(?:\.\s*)?S[123](?:\s*\*)?)*)
  | (?P<form2>e(?:1[23]|23))
  | (?P<form1>e[123])
  | (?P<num>(?P<numer>[0-9]+)(?:/(?P<den>[0-9]+))?(?P<imag>i?))
  | (?P<decimal>(?<=[0-9])\.(?=[0-9]))
  | (?P<imag_unit>i)
  | (?P<op>[()+\-*.d])
  | (?P<bad>.)
""", re.VERBOSE)
# one letter of a generator run: its digit and its adjoint star, if any
_LETTER = re.compile(r"S([123])\s*(\*?)")
# the monomial of each letter, keyed as ``_LETTER`` finds it; every run
# shares these six, so a letter costs a lookup and no object
_LETTERS = {(d, star): Monomial((), (int(d),)) if star else Monomial((int(d),), ())
            for d in "123" for star in ("", "*")}


def _tokenize(text: str) -> list[tuple[str, int, object]]:
    """``(kind, pos, value)`` tokens, ending in ``("eof", len(text), None)``;
    punctuation and ``d`` are their own kind.  The kinds are tested in the
    order they are most frequent in long sums: whitespace, punctuation,
    numbers, runs."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        pos = m.start()
        if kind == "op":
            kind, value = m[0], None
        elif kind == "num":
            num, den, imag = m.group("numer", "den", "imag")
            if len(num) > MAX_LITERAL_DIGITS or den and len(den) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", pos)
            n, q = int(num), int(den or 1)
            if q == 0:
                raise ParseError("zero denominator in scalar", pos)
            value = _norm(0, n, q) if imag else _norm(n, 0, q)
        elif kind == "gen":
            value = tuple(map(_LETTERS.__getitem__, _LETTER.findall(m[0])))
        elif kind == "form1":
            value = int(text[pos + 1])
        elif kind == "form2":
            value = (int(text[pos + 1]), int(text[pos + 2]))
        elif kind == "imag_unit":
            kind, value = "num", I
        elif kind == "decimal":
            raise ParseError(
                "decimal literals are not supported; use an exact fraction "
                "like 3/2", pos)
        else:
            raise ParseError(f"unexpected character {m[0]!r}", pos)
        tokens.append((kind, pos, value))
    tokens.append(("eof", len(text), None))
    return tokens


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------

_FACTOR_START = {"num", "gen", "form1", "form2", "d", "("}


def _degree(v) -> int:
    if isinstance(v, AlgElem):
        return 0
    if isinstance(v, OneForm):
        return 1
    return 2


def _components(v) -> tuple[AlgElem, ...]:
    return (v,) if isinstance(v, AlgElem) else v.c


def _times_run(x, letters: tuple[Monomial, ...]):
    """``x`` times the letters of a generator run, left to right, as one
    product per letter gives it.  An element of one term stays one word, so
    the word folds with ``_mul_monomials``, which checks the word cap after
    every letter; the fold stops at the first zero, as those products
    would.  Any other element or form takes the products."""
    if isinstance(x, AlgElem) and len(x._map) == 1:
        (word, c), = x._map.items()
        if word == _UNIT:  # the unit times the first letter is that letter
            word, letters = letters[0], letters[1:]
        for letter in letters:
            word = _mul_monomials(word, letter)
            if word is None:
                return AlgElem.zero()
        return AlgElem({word: c})
    for letter in letters:
        x = x * AlgElem({letter: ONE})
    return x


class _Parser:
    """Recursive descent over the tokens that evaluates as it reads.  The
    ``parse_*`` methods return ``(value, pos)``: ``pos`` is where a degree
    fault about the value is reported (for a lone group, inside it).  With
    ``alg`` set, a form symbol or ``d`` is a context fault."""

    def __init__(self, tokens: list[tuple[str, int, object]], alg: bool):
        self.tokens = tokens
        self.alg = alg
        self.i = 0
        self.depth = 0

    def take(self) -> tuple[str, int, object]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> None:
        tok_kind, pos, _ = self.take()
        if tok_kind != kind:
            raise ParseError(f"expected {what}", pos)

    def take_sign(self) -> int:
        """1 or -1 for a consumed '+' or '-'; 0, consuming nothing, otherwise."""
        kind = self.tokens[self.i][0]
        if kind not in ("+", "-"):
            return 0
        self.i += 1
        return -1 if kind == "-" else 1

    def parse_expr(self):
        start = self.tokens[self.i][1]
        sign = self.take_sign()
        first, pos = self.parse_term()
        if self.tokens[self.i][0] not in ("+", "-"):
            return (-first, start) if sign < 0 else (first, pos)
        sums = [_Sum() for _ in _components(first)]
        val = first
        while True:
            for acc, a in zip(sums, _components(val)):
                acc.add(a, sign)
            if not (sign := self.take_sign()):
                break
            val, item_pos = self.parse_term()
            if type(val) is not type(first):  # one type per degree
                raise ParseError("cannot add terms of different degree", item_pos)
        values = tuple(acc.value() for acc in sums)
        return (values[0] if isinstance(first, AlgElem) else type(first)(values)), start

    def parse_term(self):
        tokens = self.tokens
        start = tokens[self.i][1]
        acc, pos = self.parse_factor()
        while True:
            kind, tok_pos, value = tokens[self.i]
            if kind == ".":
                self.i += 1
                kind, _, value = tokens[self.i]
            elif kind == "*":
                raise ParseError("adjoint '*' may only follow a generator", tok_pos)
            elif kind not in _FACTOR_START:
                return acc, pos
            if kind == "gen":
                self.i += 1
                acc, pos = _times_run(acc, value), start
                continue
            val, factor_pos = self.parse_factor()
            if _degree(acc) + _degree(val) > 2:
                raise ParseError("product exceeds form degree 2", factor_pos)
            acc, pos = acc * val, start

    def parse_factor(self):
        kind, pos, value = self.take()
        if kind == "num":
            return AlgElem.scalar(value), pos
        if kind == "gen":
            return _times_run(AlgElem.unit(), value), pos
        if kind == "form1":
            if self.alg:
                raise ParseError("one-form symbol in algebra context", pos)
            return OneForm.basis(value), pos
        if kind == "form2":
            if self.alg:
                raise ParseError("two-form symbol in algebra context", pos)
            return TwoForm.basis(*value), pos
        if kind == "d":
            if self.alg:
                raise ParseError("differential in algebra context", pos)
            self.expect("(", "'(' after 'd'")
            inner, _ = self.parse_group(pos)
            deg = _degree(inner)
            if deg == 2:
                raise ParseError("d of a two-form is outside this calculus", pos)
            return (d1(inner) if deg else d0(inner)), pos
        if kind == "(":
            return self.parse_group(pos)
        raise ParseError("expected a scalar, generator, form symbol, d(...) or group",
                         pos)

    def parse_group(self, pos: int):
        """The expression after an opening '(' and its closing ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self.parse_expr()
        self.expect(")", "closing ')'")
        self.depth -= 1
        return inner


def _parse(text: str, alg: bool):
    parser = _Parser(_tokenize(text), alg)
    value, _ = parser.parse_expr()
    kind, pos, _ = parser.tokens[parser.i]
    if kind != "eof":
        raise ParseError("unexpected trailing input", pos)
    return value


def parse_expr(text: str):
    """Parse and evaluate; result is an AlgElem, OneForm or TwoForm."""
    return _parse(text, False)


def parse_alg(text: str) -> AlgElem:
    """Parse text that must denote an algebra element."""
    return _parse(text, True)


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

def _frac_text(n: int, d: int, decimal: bool) -> str:
    """Text of the rational n/d, given in lowest terms with d > 0."""
    if d == 1:
        return str(n)
    if not decimal:
        return f"{n}/{d}"
    den = d
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{n}/{d}"  # no finite decimal expansion; stay exact
    k = max(twos, fives)
    scaled = n * 10**k // d
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled)
    return f"{sign}{digits // 10**k}.{digits % 10**k:0{k}d}"


def _imag_text(y: int, d: int, decimal: bool) -> str:
    """Text of the imaginary scalar ``(y/d) i`` for y > 0, y/d in lowest terms."""
    return "i" if y == d else _frac_text(y, d, decimal) + "i"


# the text of each letter, indexed by the letter: in mu, and in nu as an adjoint
_MU_TEXT = (None, "S1", "S2", "S3")
_NU_TEXT = (None, "S1*", "S2*", "S3*")


def _mono_text(m: Monomial) -> str:
    return " ".join([_MU_TEXT[letter] for letter in m.mu]
                    + [_NU_TEXT[letter] for letter in reversed(m.nu)])


def _term(c: GScalar, symbol: str, decimal: bool) -> str:
    """The term ``c * symbol`` led by its sign, `` + `` or `` - ``; an empty
    symbol is the unit.  A scalar with two nonzero parts prints in
    parentheses after `` + ``.  Only such a scalar needs a gcd: a part of a
    reduced triple whose other part is 0 is in lowest terms already."""
    x, y, d = c
    if not y:
        sign, mag = (" - ", -x) if x < 0 else (" + ", x)
        if symbol and mag == d:
            return sign + symbol
        text = _frac_text(mag, d, decimal)
    elif not x:
        sign, mag = (" - ", -y) if y < 0 else (" + ", y)
        text = _imag_text(mag, d, decimal)
    else:
        g, h = gcd(x, d), gcd(y, d)
        re_text = _frac_text(x // g, d // g, decimal)
        im_text = _imag_text(abs(y) // h, d // h, decimal)
        sign, text = " + ", f"({re_text} {'-' if y < 0 else '+'} {im_text})"
    return f"{sign}{text} {symbol}" if symbol else sign + text


def _join_terms(terms: list[str]) -> str:
    """The signed terms as one text: the first loses its `` + ``, or reads
    ``- `` for `` - ``."""
    text = "".join(terms)
    return text[3:] if text[1] == "+" else "- " + text[3:]


def _alg_text(x: AlgElem, decimal: bool) -> str:
    """The text of an element; its ``terms`` are read, and sorted, once."""
    if x.is_zero():
        return "0"
    return _join_terms([_term(c, _mono_text(m), decimal) for m, c in x.terms])


def _form_term(label: str, a: AlgElem, decimal: bool) -> str:
    if len(a._map) == 1:  # one term needs no sort
        (m, c), = a._map.items()
        return _term(c, label if m.is_unit else f"{label} {_mono_text(m)}", decimal)
    return f" + {label} ({_alg_text(a, decimal)})"


def _form_text(labels: tuple[str, ...], coeffs, decimal: bool) -> str:
    parts = [
        _form_term(label, a, decimal)
        for label, a in zip(labels, coeffs)
        if not a.is_zero()
    ]
    if not parts:
        return "0"
    return _join_terms(parts)


def print_canonical(x, decimal: bool = False) -> str:
    """Deterministic text for scalars, algebra elements and forms."""
    if isinstance(x, GScalar):
        return _alg_text(AlgElem.scalar(x), decimal)
    if isinstance(x, AlgElem):
        return _alg_text(x, decimal)
    if isinstance(x, (OneForm, TwoForm)):
        return _form_text(x.LABELS, x.c, decimal)
    raise TypeError(f"cannot print {type(x).__name__}")


def print_tensor(t, decimal: bool = False) -> str:
    """Display text for tensors; entries read ``e_a(x)e_b`` with the usual
    coefficient placement.  (Display only — tensors are not in the grammar.)"""
    labels = tuple("(x)".join(f"e{i}" for i in idx) for idx, _ in t.entries)
    return _form_text(labels, [c for _, c in t.entries], decimal)
