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
literals.  A ``.`` right after a number's digits and before a digit is a
decimal point, which is rejected (write ``3/2``, not ``1.5``); anywhere
else it is the product, so ``S1.5`` is ``5 S1``.  One regular expression
scans the whole text into tokens; each match is a token together with the
whitespace before it, so whitespace is never a token, and each token carries
its value.  A run of generator letters (adjacent, or separated by whitespace
or one ``.``) is one token that carries the term key of each letter; a
letter takes a following ``*`` (whitespace may come between) as its
adjoint.  There are six letter keys, the word-code pairs ``(j, 0)`` and
``(0, j)`` of ``S_j`` and ``S_j^*``, built once in a table (``_LETTERS``)
that every run shares, so a letter costs a lookup and no new object, and a
parse keeps no per-letter objects alive.  A form symbol likewise carries its
basis form from one shared table (``_FORMS``).  The tokens are then parsed
and evaluated in one recursive-descent pass that folds sums and multiplies
products left to right.  A sum folds into one mutable accumulator (one per
component for forms) that touches only each summand's terms and ends in the
left fold's result exactly, so parsing takes time linear in the number of
summands.  A run multiplies into a term of one word letter by letter
(``_times_run``): ``algebra._times_letters`` steps the word's codes, so a
written word costs no element product and this module does no bit
arithmetic.
Problems raise :class:`ParseError` carrying the character offset — they
never abort the process.  That includes input beyond the parser's bounds:
groups and ``d(...)`` nested deeper than ``MAX_NESTING``, and integer
literals longer than ``MAX_LITERAL_DIGITS`` or a lower int-string limit of
the interpreter.  Lexical faults come first; syntax, context and degree
faults and resource caps (``CapacityError``) follow in the order the parser
reaches them.

A number token is one scalar triple, built by ``scalars._norm`` from its
integers.

Canonical printing orders monomials by (|nu|, nu, |mu|, mu), puts scalar
coefficients on the left of basis symbols and algebra coefficients on the
right (parenthesized when they have several terms), and always emits text
that parses back to the same canonical form.  One loop writes each term
with its sign in front (`` + `` or `` - ``), and one join drops or shortens
the first sign, or prints ``0`` when there are no terms.  It sorts an
element's keys with ``algebra._ordered`` and reads each word from its code:
a print call builds the text of a word code from tables of the letter texts
(``algebra._word`` gives the letters) the first time a term holds it and
looks it up after that (``_WordTexts``), as the words of one print call
repeat (on the ``cli-text`` benchmark, 94% of the word lookups of a print
call find a text built before).  It reads each
coefficient's triple (a, b, d); a real or an imaginary scalar is in lowest
terms already, since gcd(a, b, d) = 1, so only a scalar with two nonzero
parts takes a gcd for each part (``_part_text``, which also gives
``eval --json`` its ``re`` and ``im``).
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
import sys
from math import gcd

from . import algebra
from .algebra import _UNIT, AlgElem, Key, _code, _Sum, _times_letters, _word
from .calculus import WEDGE_PAIRS, OneForm, TwoForm, differential
from .scalars import GScalar, ONE, _norm


# Each level of nesting costs the recursive-descent parser four stack
# frames; 100 levels stay well inside Python's default recursion limit.
MAX_NESTING = 100
# CPython's default cap on int-from-string conversion
# (``sys.get_int_max_str_digits()``, in 3.11 and from 3.10.7).  A literal
# longer than this, or than the interpreter's own limit when that is set
# lower (``-X int_max_str_digits``), is a ParseError here; the limit is read
# at each tokenization, and 0 or no such function means no limit.
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

# Each match is one token with the whitespace before it; the name of the
# alternative that matched is the token kind, and the token's position and
# text are those of that group.  Each kind but punctuation carries its value.
# Digits are ASCII 0-9 (``\d`` would match any Unicode decimal digit, such as
# '٣').  A number is digits with an optional denominator and ``i``, or the
# lone ``i``; a ``.`` right after its digits and before a digit is a decimal
# point (``point``), rejected at the dot after the literal's own faults.
# Anywhere else ``.`` is the product, so ``S1.5`` is ``5 S1``.  Any other
# character is unexpected.  The scan stops at the last character that is not
# whitespace, so trailing whitespace is never rescanned from each of its
# positions.
_TOKEN = re.compile(r"""\s*(?:
    (?P<gen>S[123](?:\s*\*)?(?:\s*(?:\.\s*)?S[123](?:\s*\*)?)*)
  | (?P<form>e(?:1[23]|23|[123]))
  | (?P<num>(?=[0-9i])(?P<numer>[0-9]*)(?:/(?P<den>[0-9]+))?
            (?P<point>\.(?=[0-9]))?(?P<imag>i?))
  | (?P<op>[()+\-*.d])
  | (?P<bad>\S)
)""", re.VERBOSE)
# one letter of a generator run: its digit and its adjoint star, if any
_LETTER = re.compile(r"S([123])\s*(\*?)")
# the term key of each letter, keyed as ``_LETTER`` finds it; every run
# shares these six, so a letter costs a lookup and no object
_LETTERS = {(d, star): (0, _code(map(int, d))) if star else (_code(map(int, d)), 0)
            for d in "123" for star in ("", "*")}
# the basis form of each form symbol, shared by every parse as the letter
# keys are
_FORMS = {**{f"e{i}": OneForm.basis(i) for i in (1, 2, 3)},
          **{f"e{i}{j}": TwoForm.basis(i, j) for i, j in WEDGE_PAIRS}}


def _tokenize(text: str) -> list[tuple[str, int, object]]:
    """``(kind, pos, value)`` tokens, ending in ``("eof", len(text), None)``;
    the kinds are ``gen``, ``form``, ``num`` and each punctuation character
    and ``d``.  The kinds are tested in the order they are most frequent in
    long sums: punctuation, numbers, runs."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bound = min(MAX_LITERAL_DIGITS, limit or MAX_LITERAL_DIGITS)
    tokens = []
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "op":
            kind, value = m[kind], None
        elif kind == "num":
            num, den, imag = m.group("numer", "den", "imag")
            if len(num) > bound or den and len(den) > bound:
                raise ParseError(f"integer literal longer than {bound} digits", pos)
            n, q = int(num or 1), int(den or 1)
            if q == 0:
                raise ParseError("zero denominator in scalar", pos)
            if m["point"]:
                raise ParseError(
                    "decimal literals are not supported; use an exact fraction "
                    "like 3/2", m.start("point"))
            value = _norm(0, n, q) if imag else _norm(n, 0, q)
        elif kind == "gen":
            value = tuple(map(_LETTERS.__getitem__, _LETTER.findall(m[kind])))
        elif kind == "form":
            value = _FORMS[m[kind]]
        else:
            raise ParseError(f"unexpected character {m[kind]!r}", pos)
        tokens.append((kind, pos, value))
    tokens.append(("eof", len(text), None))
    return tokens


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------

_FACTOR_START = {"num", "gen", "form", "d", "("}


def _degree(v) -> int:
    if isinstance(v, AlgElem):
        return 0
    if isinstance(v, OneForm):
        return 1
    return 2


def _components(v) -> tuple[AlgElem, ...]:
    return (v,) if isinstance(v, AlgElem) else v.c


def _times_run(x, letters: tuple[Key, ...]):
    """``x`` times the letters of a generator run, left to right, as one
    product per letter gives it.  An element of one term stays one term:
    ``algebra._times_letters`` steps its word letter by letter and checks
    the word cap on each word that grows, and the product is 0 at the first
    letter that clashes, as those products would be.  Any other element or
    form takes the products."""
    if isinstance(x, AlgElem) and len(x._map) == 1:
        (word, c), = x._map.items()
        word = _times_letters(word, letters)
        return AlgElem.zero() if word is None else AlgElem({word: c})
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
        if kind == "form":
            if self.alg:
                degree = "one" if isinstance(value, OneForm) else "two"
                raise ParseError(f"{degree}-form symbol in algebra context", pos)
            return value, pos
        if kind == "d":
            if self.alg:
                raise ParseError("differential in algebra context", pos)
            self.expect("(", "'(' after 'd'")
            inner, _ = self.parse_group(pos)
            if isinstance(inner, TwoForm):
                raise ParseError("d of a two-form is outside this calculus", pos)
            return differential(inner), pos
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


def _part_text(n: int, d: int, decimal: bool) -> str:
    """Text of the rational n/d for d > 0, one part of a triple, reduced."""
    g = gcd(n, d)
    return _frac_text(n // g, d // g, decimal)


def _imag_text(mag: str) -> str:
    """Text of the imaginary scalar whose positive magnitude reads ``mag``."""
    return "i" if mag == "1" else mag + "i"


# the text of each letter, indexed by the letter: in mu, and in nu as an adjoint
_MU_TEXT = (None, "S1", "S2", "S3")
_NU_TEXT = (None, "S1*", "S2*", "S3*")


class _WordTexts(dict):
    """The text of each word code met in one print call, built when first
    met: a mu word under its code, letters first to last, and a nu word
    under the code's complement ``~code``, adjoints last to first."""

    def __missing__(self, key: int) -> str:
        if key >= 0:
            texts = [_MU_TEXT[j] for j in _word(key)]
        else:
            texts = [_NU_TEXT[j] for j in reversed(_word(~key))]
        text = self[key] = " ".join(texts)
        return text


def _mono_text(key: Key, words: _WordTexts) -> str:
    mu, nu = key
    return f"{words[mu]} {words[~nu]}" if mu and nu else words[mu] if mu else words[~nu]


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
        text = _imag_text(_frac_text(mag, d, decimal))
    else:
        re_text = _part_text(x, d, decimal)
        im_text = _imag_text(_part_text(abs(y), d, decimal))
        sign, text = " + ", f"({re_text} {'-' if y < 0 else '+'} {im_text})"
    return f"{sign}{text} {symbol}" if symbol else sign + text


def _join_terms(terms: list[str]) -> str:
    """The signed terms as one text: ``0`` for no terms, else the first loses
    its `` + ``, or reads ``- `` for `` - ``."""
    text = "".join(terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "- " + text[3:]


def _alg_text(x: AlgElem, decimal: bool, words: _WordTexts) -> str:
    """The text of an element; its terms are sorted once."""
    return _join_terms([_term(c, _mono_text(key, words), decimal)
                        for key, c in algebra._ordered(x._map.items())])


def _form_term(label: str, a: AlgElem, decimal: bool, words: _WordTexts) -> str:
    if len(a._map) == 1:  # one term needs no sort
        (key, c), = a._map.items()
        return _term(c, label if key == _UNIT else f"{label} {_mono_text(key, words)}",
                     decimal)
    return f" + {label} ({_alg_text(a, decimal, words)})"


def _form_text(labels: tuple[str, ...], coeffs, decimal: bool) -> str:
    words = _WordTexts()
    return _join_terms([_form_term(label, a, decimal, words)
                        for label, a in zip(labels, coeffs) if not a.is_zero()])


def print_canonical(x, decimal: bool = False) -> str:
    """Deterministic text for scalars, algebra elements and forms."""
    if isinstance(x, GScalar):
        x = AlgElem.scalar(x)
    if isinstance(x, AlgElem):
        return _alg_text(x, decimal, _WordTexts())
    if isinstance(x, (OneForm, TwoForm)):
        return _form_text(x.LABELS, x.c, decimal)
    raise TypeError(f"cannot print {type(x).__name__}")


def print_tensor(t, decimal: bool = False) -> str:
    """Display text for tensors; entries read ``e_a(x)e_b`` with the usual
    coefficient placement.  (Display only — tensors are not in the grammar.)"""
    labels = tuple("(x)".join(f"e{i}" for i in idx) for idx, _ in t.entries)
    return _form_text(labels, [c for _, c in t.entries], decimal)
