"""Shared helpers for the test suite: seeded random element builders and
hypothesis strategies sized to keep exact arithmetic fast."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import Phase, assume

from cuntzgeo import (
    BASIS_DIFFERENTIALS,
    AlgElem,
    CapacityError,
    Connection,
    GScalar,
    Metric,
    MetricError,
    Monomial,
    OneForm,
    TensorElem,
    TwoForm,
    antisym_lift,
    d0,
    get_caps,
    tensor_product,
    wedge,
)
from cuntzgeo import algebra
from cuntzgeo.calculus import GENERATOR_MATRICES, WEDGE_PAIRS, sym_project_legs
from cuntzgeo.scalars import ONE, ZERO

# ---------------------------------------------------------------------------
# seeded random builders (used where exact repetition counts matter)
# ---------------------------------------------------------------------------

def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def random_gscalar(rng: random.Random, nonzero: bool = False) -> GScalar:
    while True:
        c = GScalar(random_fraction(rng),
                    random_fraction(rng) if rng.random() < 0.3 else Fraction(0))
        if c or not nonzero:
            return c


def words_of_length(length: int):
    """Every word of the given length over {1, 2, 3}, the tree-action
    oracle's test inputs."""
    return itertools.product((1, 2, 3), repeat=length)


def random_word(rng: random.Random, max_len: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(1, 3) for _ in range(rng.randint(0, max_len)))


def split_terms(x: AlgElem, rng: random.Random,
                depth: int = 3) -> list[tuple[Monomial, GScalar]]:
    """The terms of x split through sum_j S_j S_j^* = 1 to uneven depths, as
    one-term pieces; adding them back completes equal-coefficient families."""
    pieces = []

    def split(m, c, depth):
        if depth and rng.random() < 0.6:
            for j in (1, 2, 3):
                split(Monomial(m.mu + (j,), m.nu + (j,)), c, depth - 1)
        else:
            pieces.append((m, c))

    for m, c in x.terms:
        split(m, c, depth)
    return pieces


def random_elem(rng: random.Random, max_terms: int = 4,
                max_len: int = 3, max_degree: int | None = None) -> AlgElem:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if max_degree is None:
            mu, nu = random_word(rng, max_len), random_word(rng, max_len)
        else:
            lm = rng.randint(0, max_degree)
            ln = rng.randint(0, max_degree - lm)
            mu = tuple(rng.randint(1, 3) for _ in range(lm))
            nu = tuple(rng.randint(1, 3) for _ in range(ln))
        terms[Monomial(mu, nu)] = random_gscalar(rng, nonzero=True)
    return AlgElem.from_terms(terms)


def random_rank2(rng: random.Random, scalar: bool = False) -> TensorElem:
    entries = {}
    for _ in range(rng.randint(0, 5)):
        idx = (rng.randint(1, 3), rng.randint(1, 3))
        if scalar:
            entries[idx] = AlgElem.scalar(random_gscalar(rng, nonzero=True))
        else:
            entries[idx] = random_elem(rng, max_terms=2, max_len=2)
    return TensorElem.from_entries(2, entries)


def random_metric(rng: random.Random) -> Metric:
    """A random symmetric invertible metric with small rational entries."""
    while True:
        a = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                v = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
                a[i][j] = a[j][i] = v
        rows = tuple(tuple(GScalar(x, Fraction(0)) for x in row) for row in a)
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if det:
            return Metric(rows)


# ---------------------------------------------------------------------------
# references: sums, d1, the compatibility pairing, the curvature, Ricci and
# Scal by tensor and element algebra
# ---------------------------------------------------------------------------

def merge_pairs(pairs) -> dict:
    """(key, value) pairs merged by hand into a dict: a repeated key adds
    its values, and a sum of 0 stays.  The library's builders take distinct
    keys (``AlgElem.from_terms`` a mapping, the ``TensorElem`` constructor
    rejects a repeated index), so references that sum repeated keys merge
    them here, with no library code."""
    out = {}
    for key, value in pairs:
        out[key] = out[key] + value if key in out else value
    return out


def reference_sum(a: AlgElem, b: AlgElem, sign: int = 1) -> AlgElem:
    """a + b (a - b for a negative sign) without the accumulator that + and
    - use: merge the terms of a and of ±b, then canonicalize the lot with
    ``AlgElem.from_terms``, whose collapse starts from every term."""
    acc = a.term_map()
    for m, c in (b if sign > 0 else -b).terms:
        old = acc.get(m)
        acc[m] = c if old is None else old + c
    return AlgElem.from_terms(acc)


def code_key(m: Monomial) -> tuple[int, int]:
    """The term-map key of a monomial: the base-4 codes of its two words."""
    return algebra._code(m.mu), algebra._code(m.nu)


def reference_derive(i: int, x: AlgElem) -> AlgElem:
    """derive(i, x) by the Leibniz rule on the full rows of X_i: each letter
    of each word goes to sum_k X_i[letter][k] S_k, zero entries included,
    one letter at a time, and ``AlgElem.from_terms`` canonicalizes the
    merged images.  It shares no image code with ``calculus.derive``."""
    rows = GENERATOR_MATRICES[i]
    images = {}
    for m, c in x.terms:
        for side, word in enumerate(m):
            for p, letter in enumerate(word):
                for k, entry in zip((1, 2, 3), rows[letter - 1]):
                    image = word[:p] + (k,) + word[p + 1:]
                    key = Monomial(image, m.nu) if side == 0 else Monomial(m.mu, image)
                    images[key] = images.get(key, ZERO) + c * entry
    return AlgElem.from_terms(images)


def reference_d1(omega: OneForm) -> TwoForm:
    """The degree-1 differential with e_i d0(a) formed as the wedge of the
    tensor e_i ⊗ d0(a): sum_i d(e_i) a_i - wedge(e_i ⊗ d0(a_i))."""
    out = TwoForm.zero()
    for i in (1, 2, 3):
        a = omega.component(i)
        if a.is_zero():
            continue
        out = out + BASIS_DIFFERENTIALS[i - 1] * a
        out = out - wedge(tensor_product(TensorElem.basis(i), d0(a)))
    return out


def _pair_first_two_legs(g: Metric, t: TensorElem) -> OneForm:
    """(g ⊗ id) on a rank-3 tensor: pair legs 1, 2 and keep leg 3."""
    comps = [AlgElem.zero() for _ in range(3)]
    for (a, b, c), coeff in t.entries:
        comps[c - 1] = comps[c - 1] + coeff.scale(g.entry(a, b))
    return OneForm(tuple(comps))


def reference_compatibility(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """The compatibility pairing on every basis pair (e_i, e_j): take
    conn(e_i) ⊗ e_j + conn(e_j) ⊗ e_i, swap legs 2 and 3, and pair the first
    two legs with the metric."""
    return tuple(
        tuple(_pair_first_two_legs(g, (
            tensor_product(conn.value(i), OneForm.basis(j))
            + tensor_product(conn.value(j), OneForm.basis(i))).flip_legs(1, 2))
            for j in (1, 2, 3))
        for i in (1, 2, 3))


def reference_curvature_step(conn: Connection, t: TensorElem) -> TensorElem:
    """The rank-2 -> rank-3 map whose value on the connection is the
    curvature: on e_i ⊗ e_j, (id - sym)_{23}(conn(e_i) ⊗ e_j) plus
    e_i ⊗ antisym_lift(d(e_j)), coefficients on the right."""
    lifted = tuple(antisym_lift(w) for w in BASIS_DIFFERENTIALS)
    acc = TensorElem.zero(3)
    for (i, j), c in t.entries:
        first = tensor_product(conn.value(i), OneForm.basis(j))
        first = first - sym_project_legs(first, 1, 2)
        second = tensor_product(TensorElem.basis(i), lifted[j - 1])
        acc = acc + (first + second) * c
    return acc


def reference_curvature(conn: Connection) -> tuple[TensorElem, TensorElem, TensorElem]:
    """The curvature three-tensor on each basis one-form."""
    return tuple(reference_curvature_step(conn, conn.value(i)) for i in (1, 2, 3))


def reference_ricci(theta: dict) -> TensorElem:
    """The Ricci contraction as a tensor sum: every entry theta(a, b, k, k)
    as an (a, b) pair, repeated indices added by ``merge_pairs``."""
    return TensorElem(2, merge_pairs(
        ((a, b), coeff) for (a, b, c, k), coeff in theta.items() if c == k).items())


def reference_scalar_curvature(g: Metric, ric: TensorElem) -> AlgElem:
    """Ricci paired with the metric by element arithmetic: the sum of
    g(a, b) times the (a, b) entry."""
    acc = AlgElem.zero()
    for (a, b), c in ric.entries:
        acc = acc + c.scale(g.entry(a, b))
    return acc


# ---------------------------------------------------------------------------
# reference inverse: the adjugate
# ---------------------------------------------------------------------------

def adjugate_inverse(g: Metric) -> list[list[GScalar]]:
    """g⁻¹ by plain GScalar arithmetic: the adjugate over the determinant,
    checked against g g⁻¹ = I."""
    m, det = g.rows, g.det()
    inv = [[(m[(k + 1) % 3][(i + 1) % 3] * m[(k + 2) % 3][(i + 2) % 3]
             - m[(k + 1) % 3][(i + 2) % 3] * m[(k + 2) % 3][(i + 1) % 3]) / det
            for k in range(3)] for i in range(3)]
    for i in range(3):
        for k in range(3):
            entry = sum((inv[i][a] * m[a][k] for a in range(3)), GScalar())
            assert entry == GScalar(int(i == k))
    return inv


# ---------------------------------------------------------------------------
# the two-Fraction scalar model: a reference for GScalar arithmetic
# ---------------------------------------------------------------------------

def fraction_pair(x: GScalar | int | Fraction) -> tuple[Fraction, Fraction]:
    """x as the (re, im) pair of Fractions of the two-Fraction model."""
    if isinstance(x, GScalar):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def reference_scalar_op(op: str, x, y=None) -> tuple[Fraction, Fraction]:
    """x op y (or op x for the unary "neg" and "conjugate") by the
    formulas of the two-Fraction model, as an (re, im) pair."""
    a, b = fraction_pair(x)
    if op == "neg":
        return -a, -b
    if op == "conjugate":
        return a, -b
    c, d = fraction_pair(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


# ---------------------------------------------------------------------------
# reference printer: the canonical text written out plainly, one helper per
# step, with a gcd on every fraction; print_canonical must match it
# ---------------------------------------------------------------------------

def _ref_frac_text(n: int, d: int, decimal: bool) -> str:
    g = math.gcd(n, d)
    n, d = n // g, d // g
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
        return f"{n}/{d}"
    k = max(twos, fives)
    scaled = n * 10**k // d
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled)
    return f"{sign}{digits // 10**k}.{digits % 10**k:0{k}d}"


def _ref_imag_text(y: int, d: int, decimal: bool) -> str:
    return "i" if y == d else _ref_frac_text(y, d, decimal) + "i"


def _ref_mono_text(m: Monomial) -> str:
    parts = [f"S{letter}" for letter in m.mu]
    parts.extend(f"S{letter}*" for letter in reversed(m.nu))
    return " ".join(parts)


def _ref_term(c: GScalar, symbol: str, decimal: bool) -> tuple[int, str]:
    x, y, d = c
    if not y:
        sign, mag = (-1, -x) if x < 0 else (1, x)
        if symbol and mag == d:
            return sign, symbol
        text = _ref_frac_text(mag, d, decimal)
    elif not x:
        sign, mag = (-1, -y) if y < 0 else (1, y)
        text = _ref_imag_text(mag, d, decimal)
    else:
        op = "-" if y < 0 else "+"
        body = f"({_ref_frac_text(x, d, decimal)} {op} {_ref_imag_text(abs(y), d, decimal)})"
        return 1, f"{body} {symbol}" if symbol else body
    return sign, f"{text} {symbol}" if symbol else text


def _ref_join_terms(parts: list[tuple[int, str]]) -> str:
    out = []
    for k, (sign, body) in enumerate(parts):
        if k == 0:
            out.append(("- " if sign < 0 else "") + body)
        else:
            out.append((" + " if sign > 0 else " - ") + body)
    return "".join(out)


def _ref_alg_text(x: AlgElem, decimal: bool) -> str:
    if x.is_zero():
        return "0"
    return _ref_join_terms([_ref_term(c, _ref_mono_text(m), decimal) for m, c in x.terms])


def reference_print(x, decimal: bool = False) -> str:
    """The canonical text of an element or a form, from its ``terms``."""
    if isinstance(x, AlgElem):
        return _ref_alg_text(x, decimal)
    parts = []
    for label, a in zip(x.LABELS, x.c):
        if len(a.terms) == 1:
            (m, c), = a.terms
            parts.append(_ref_term(c, label if m.is_unit else f"{label} {_ref_mono_text(m)}",
                                   decimal))
        elif not a.is_zero():
            parts.append((1, f"{label} ({_ref_alg_text(a, decimal)})"))
    return _ref_join_terms(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the tuple-word oracle: the term-map kernels on words as tuples of letters,
# in maps keyed by Monomial, as they were before words became codes
# ---------------------------------------------------------------------------

def tuple_mul_monomials(a: Monomial, b: Monomial) -> Monomial | None:
    """The product of two monomials by prefix matching, or None; the word cap
    is checked on both words of the product, with the package's text."""
    nu, mu2 = a.nu, b.mu
    if len(nu) <= len(mu2):
        if mu2[: len(nu)] != nu:
            return None
        m = Monomial(a.mu + mu2[len(nu):], b.nu)
    elif nu[: len(mu2)] == mu2:
        m = Monomial(a.mu, b.nu + nu[len(mu2):])
    else:
        return None
    cap = get_caps()[0]
    if len(m.mu) > cap or len(m.nu) > cap:
        raise CapacityError(f"word length exceeds cap {cap} (raise it via set_caps)")
    return m


def _tuple_family_coefficient(terms: dict, mu: tuple, nu: tuple):
    first = terms.get((mu + (1,), nu + (1,)))
    if (first is None or terms.get((mu + (2,), nu + (2,))) != first
            or terms.get((mu + (3,), nu + (3,))) != first):
        return None
    return first


def tuple_collapse(terms: dict, seeds=None) -> None:
    """Complete equal-coefficient families merge into their parent, deepest
    level |mu| + |nu| first, from the families of ``seeds`` or of every
    member of letter 1."""
    if len(terms) < 3:
        return
    if seeds is None:
        pending = [(m.mu[:-1], m.nu[:-1]) for m in terms
                   if m.mu and m.nu and m.mu[-1] == 1 == m.nu[-1]]
    else:
        pending = {(m.mu[:-1], m.nu[:-1]) for m in seeds
                   if m.mu and m.nu and m.mu[-1] == m.nu[-1]}
    levels: dict[int, list] = {}
    for mu, nu in pending:
        if _tuple_family_coefficient(terms, mu, nu) is not None:
            levels.setdefault(len(mu) + len(nu), []).append((mu, nu))
    while levels:
        level = max(levels)
        for mu, nu in levels.pop(level):
            first = _tuple_family_coefficient(terms, mu, nu)
            if first is None:
                continue
            for j in (1, 2, 3):
                del terms[mu + (j,), nu + (j,)]
            old = terms.get((mu, nu))
            total = first if old is None else old + first
            if total:
                terms[Monomial(mu, nu)] = total
                if mu and nu and mu[-1] == nu[-1]:
                    levels.setdefault(level - 2, []).append((mu[:-1], nu[:-1]))
            else:
                terms.pop((mu, nu), None)


def tuple_canonical(pairs) -> dict:
    """The canonical map of (monomial, coefficient) pairs: repeated monomials
    add, zeros go, then the collapse from every term."""
    terms: dict = {}
    for m, c in pairs:
        old = terms.get(m)
        if old is None:
            if c != ZERO:
                terms[m] = c
        elif (total := old + c) != ZERO:
            terms[m] = total
        else:
            del terms[m]
    tuple_collapse(terms)
    return terms


def tuple_sum(acc: dict, summand: dict, sign: int = 1) -> dict:
    """The canonical map of acc + summand (acc - summand for a negative
    sign), both canonical: the touched keys are updated in acc, which is
    returned, and the collapse starts from the summand's families."""
    if not acc:
        return {m: -c for m, c in summand.items()} if sign < 0 else dict(summand)
    for m, c in summand.items():
        old = acc.get(m)
        if old is None:
            acc[m] = -c if sign < 0 else c
            continue
        total = old - c if sign < 0 else old + c
        if total:
            acc[m] = total
        else:
            del acc[m]
    tuple_collapse(acc, summand)
    return acc


def _tuple_image(row):
    for k, f in zip((1, 2, 3), row):
        if f:
            return k, f > 0
    return None


def tuple_derive(i: int, terms: dict) -> dict:
    """The canonical map of the i-th derivation: each letter with an image
    is replaced by it, one letter at a time, first to last."""
    images_of = (None, *map(_tuple_image, GENERATOR_MATRICES[i]))

    def images():
        for (mu, nu), c in terms.items():
            neg = -c
            for p, letter in enumerate(mu):
                if (image := images_of[letter]) is not None:
                    k, pos = image
                    yield Monomial(mu[:p] + (k,) + mu[p + 1:], nu), c if pos else neg
            for p, letter in enumerate(nu):
                if (image := images_of[letter]) is not None:
                    k, pos = image
                    yield Monomial(mu, nu[:p] + (k,) + nu[p + 1:]), c if pos else neg

    return tuple_canonical(images())


def tuple_product(x: dict, y: dict) -> dict:
    return tuple_canonical((p, ca * cb) for ma, ca in x.items() for mb, cb in y.items()
                           if (p := tuple_mul_monomials(ma, mb)) is not None)


def tuple_d1(omega) -> list[dict]:
    """The three component maps of d1 of a one-form given by three maps: one
    fold per component, d(e_i) a_i first, then the derivation of a_i
    (negated when p = i)."""
    sums: list[dict] = [{}, {}, {}]
    for i, a in zip((1, 2, 3), omega):
        if not a:
            continue
        neg = {m: -c for m, c in a.items()}
        for k, (e, (p, q)) in enumerate(zip(BASIS_DIFFERENTIALS[i - 1].c, WEDGE_PAIRS)):
            if not e.is_zero():
                sums[k] = tuple_sum(sums[k], a, 1 if e.as_scalar() == ONE else -1)
            if p == i:
                sums[k] = tuple_sum(sums[k], tuple_derive(q, neg))
            elif q == i:
                sums[k] = tuple_sum(sums[k], tuple_derive(p, a))
    return sums


def tuple_equals(x: dict, y: dict) -> bool:
    return x == y or not tuple_sum(dict(x), y, -1)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)

gscalars = st.builds(GScalar, small_fractions, small_fractions)

nonzero_gscalars = gscalars.filter(bool)

words = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple)

monomials = st.builds(Monomial, words, words)

alg_elems = st.dictionaries(monomials, nonzero_gscalars, max_size=4).map(
    AlgElem.from_terms)

small_alg_elems = st.dictionaries(
    st.builds(Monomial,
              st.lists(st.integers(1, 3), max_size=2).map(tuple),
              st.lists(st.integers(1, 3), max_size=2).map(tuple)),
    nonzero_gscalars, max_size=3).map(AlgElem.from_terms)

one_forms = st.tuples(small_alg_elems, small_alg_elems, small_alg_elems).map(OneForm)


def _scalar_connections(scalars):
    return st.tuples(*[
        st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), scalars,
                        max_size=9).map(lambda d: TensorElem.from_entries(2, d))
        for _ in range(3)]).map(Connection)


scalar_connections = _scalar_connections(gscalars)

# Parts over several large, distinct denominators, so the common denominator
# of a table differs from each entry's own.
_wide_fractions = st.builds(
    Fraction, st.integers(-10**12, 10**12),
    st.sampled_from((7, 10**6 + 3, 2**40 - 87, 10**12 + 39, 3**25)))

wide_scalar_connections = _scalar_connections(
    st.builds(GScalar, _wide_fractions, _wide_fractions))

rank2_tensors = st.dictionaries(
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    small_alg_elems.filter(lambda a: not a.is_zero()),
    max_size=4,
).map(lambda d: TensorElem.from_entries(2, d))


METRIC_CLASSES = ("diagonal", "dense", "complex", "indefinite")

# For property tests whose examples each run the geometry pipeline (about
# 0.1 s): shrinking a failure would take minutes, so report it as drawn.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _rationals(bits: int):
    """Rationals whose numerator and denominator have at most ``bits`` bits."""
    top = 2 ** bits - 1
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, top))


@st.composite
def rotations(draw) -> tuple[tuple[GScalar, GScalar, GScalar], ...]:
    """An exact rotation matrix M from a nonzero integer quaternion
    (w, a, b, c): integer entries over n = w² + a² + b² + c², with MᵀM = I
    and det M = 1."""
    w, a, b, c = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(any))
    n = w * w + a * a + b * b + c * c
    rows = ((w * w + a * a - b * b - c * c, 2 * (a * b - w * c), 2 * (a * c + w * b)),
            (2 * (a * b + w * c), w * w - a * a + b * b - c * c, 2 * (b * c - w * a)),
            (2 * (a * c - w * b), 2 * (b * c + w * a), w * w - a * a - b * b + c * c))
    return tuple(tuple(GScalar(Fraction(x, n), Fraction(0)) for x in row) for row in rows)


@st.composite
def metrics(draw, classes=METRIC_CLASSES, heights=(2, 8, 32)) -> Metric:
    """Invertible symmetric metrics of one class, entries of one bit height.

    Diagonal metrics have positive entries; complex metrics have imaginary
    parts on every entry; indefinite metrics are real with g11 < 0 < g22.
    """
    cls = draw(st.sampled_from(classes))
    part = _rationals(draw(st.sampled_from(heights)))
    rows = [[GScalar.of(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            if cls == "diagonal" and i != j:
                continue
            re_part = draw(part)
            im_part = draw(part) if cls == "complex" else Fraction(0)
            if cls == "diagonal" or (cls == "indefinite" and i == j):
                re_part = abs(re_part)
            if cls == "indefinite" and i == j == 0:
                re_part = -re_part
            rows[i][j] = rows[j][i] = GScalar(re_part, im_part)
    try:
        return Metric(rows)
    except MetricError:
        assume(False)
