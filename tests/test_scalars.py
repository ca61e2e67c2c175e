from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
