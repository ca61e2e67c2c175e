from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzgeo import (
    AlgElem,
    Metric,
    MetricError,
    OneForm,
    TensorElem,
    load_metric,
)
from cuntzgeo.scalars import GScalar, I, MINUS_ONE, ONE, ZERO, rational

from support import gscalars, nonzero_gscalars, small_fractions


def test_construction_reduces():
    c = GScalar(Fraction(2, 4), Fraction(-6, 3))
    assert c.re == Fraction(1, 2) and c.im == -2


def test_floats_rejected():
    with pytest.raises(TypeError):
        GScalar.of(0.5)
    with pytest.raises(TypeError):
        GScalar.of(1, 0.25)


def test_basic_identities():
    assert ONE + MINUS_ONE == ZERO
    assert I * I == MINUS_ONE
    assert rational(3, 4) * rational(4, 3) == ONE
    assert I.conjugate() == -I
    assert (rational(1, 2) + I).conjugate() == rational(1, 2) - I


def test_division():
    assert (ONE + I) / (ONE + I) == ONE
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_int_coercion():
    assert rational(1, 2) + 1 == rational(3, 2)
    assert 2 * rational(1, 2) == ONE
    assert 1 - rational(1, 2) == rational(1, 2)


@given(gscalars, gscalars, gscalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gscalars, gscalars)
def test_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(nonzero_gscalars)
def test_inverse_roundtrip(a):
    assert (ONE / a) * a == ONE


# operands by kind: the real fast path and the full complex formula must
# give the same values, with Fraction parts
_OPERANDS = {
    "real": st.builds(GScalar, small_fractions, st.just(Fraction(0))),
    "complex": st.builds(GScalar, small_fractions, small_fractions.filter(bool)),
    "int": st.integers(min_value=-5, max_value=5),
}


def _parts(x: GScalar | int) -> tuple[Fraction, Fraction]:
    return (x.re, x.im) if isinstance(x, GScalar) else (Fraction(x), Fraction(0))


def _is_exact(x: GScalar) -> bool:
    return type(x.re) is Fraction and type(x.im) is Fraction


@pytest.mark.parametrize("left, right", [
    ("real", "real"), ("real", "complex"), ("complex", "real"),
    ("complex", "complex"), ("int", "real"), ("int", "complex"),
    ("real", "int"), ("complex", "int"),
])
@given(data=st.data())
def test_fast_paths_match_the_complex_formula(left, right, data):
    a, b = data.draw(_OPERANDS[left]), data.draw(_OPERANDS[right])
    (p, q), (r, s) = _parts(a), _parts(b)
    expected = {
        "+": GScalar(p + r, q + s),
        "-": GScalar(p - r, q - s),
        "*": GScalar(p * r - q * s, p * s + q * r),
    }
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert got == expected[op], op
        assert _is_exact(got), op
    for x in (a, b):
        if isinstance(x, GScalar):
            re, im = _parts(x)
            assert -x == GScalar(-re, -im) and _is_exact(-x)


# -- one rule for what an exact scalar is ---------------------------------------

S1 = AlgElem.generator(1)
THIRD = Fraction(1, 3)
_T = TensorElem.basis(1, 2)


def _with_cell(cell):
    return [[cell, 0, 0], [0, 1, 0], [0, 0, 1]]


# (label, computation, expected): TypeError, a (MetricError, message) pair,
# or a computation that gives the same value with the GScalar spelling
OPERAND_CASES = [
    ("GScalar.of(True)", lambda: GScalar.of(True), TypeError),
    ("ONE + True", lambda: ONE + True, TypeError),
    ("S1 * True", lambda: S1 * True, TypeError),
    ("OneForm.of(True, 0, 0)", lambda: OneForm.of(True, 0, 0), TypeError),
    ("from_entries bool", lambda: TensorElem.from_entries(2, {(1, 2): True}), TypeError),
    ("from_rows bool", lambda: Metric.from_rows(_with_cell(True)), TypeError),
    ("S1 + 1/3", lambda: S1 + THIRD, lambda: S1 + GScalar.of(THIRD)),
    ("1/3 + S1", lambda: THIRD + S1, lambda: GScalar.of(THIRD) + S1),
    ("S1 - 1/3", lambda: S1 - THIRD, lambda: S1 - GScalar.of(THIRD)),
    ("1/3 - S1", lambda: THIRD - S1, lambda: GScalar.of(THIRD) - S1),
    ("S1 * 1/3", lambda: S1 * THIRD, lambda: S1 * GScalar.of(THIRD)),
    ("1/3 * S1", lambda: THIRD * S1, lambda: GScalar.of(THIRD) * S1),
    ("e1 * 1/3", lambda: OneForm.basis(1) * THIRD,
     lambda: OneForm.basis(1) * GScalar.of(THIRD)),
    ("1/3 * e1", lambda: THIRD * OneForm.basis(1),
     lambda: GScalar.of(THIRD) * OneForm.basis(1)),
    ("tensor * 1/3", lambda: _T * THIRD, lambda: _T * GScalar.of(THIRD)),
    ("load_metric bool", lambda: load_metric(_with_cell(True)),
     (MetricError, "metric entry is not a scalar: True")),
    ("load_metric float", lambda: load_metric(_with_cell(1.5)),
     (MetricError, 'metric entry 1.5 is a float; use an exact string like "1/2"')),
    ("load_metric Fraction", lambda: load_metric(_with_cell(THIRD)),
     lambda: Metric.from_rows(_with_cell(GScalar.of(THIRD)))),
    ("load_metric GScalar", lambda: load_metric(_with_cell(ONE + I)),
     lambda: Metric.from_rows(_with_cell(ONE + I))),
]


@pytest.mark.parametrize("got, want", [case[1:] for case in OPERAND_CASES],
                         ids=[case[0] for case in OPERAND_CASES])
def test_one_rule_for_exact_scalars(got, want):
    if want is TypeError:
        with pytest.raises(TypeError):
            got()
    elif isinstance(want, tuple):
        with pytest.raises(want[0]) as info:
            got()
        assert str(info.value) == want[1]
    else:
        assert got() == want()
