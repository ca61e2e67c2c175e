import copy
import math
import operator
import pickle
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
    d0,
    d1,
    load_metric,
    parse_alg,
    print_canonical,
)
from cuntzgeo.scalars import GScalar, I, MINUS_ONE, ONE, ZERO, _norm, rational

from support import gscalars, nonzero_gscalars, reference_scalar_op, small_fractions


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


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
       st.integers(1, 10**30), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_shifting_a_reduced_triple_by_its_denominator_keeps_it_reduced(a, b, d, k, l):
    # gcd(a + k d, b + l d, d) = gcd(a, b, d): adding a Gaussian integer to a
    # reduced scalar needs no second gcd, which levi_civita relies on
    a, b, d = _norm(a, b, d)
    assert _norm(a + k * d, b + l * d, d) == (a + k * d, b + l * d, d)


@given(nonzero_gscalars)
def test_inverse_roundtrip(a):
    assert (ONE / a) * a == ONE


# -- the number model: one reduced Gaussian-integer triple ----------------------

def _is_reduced(x: object) -> bool:
    """x is a GScalar (a, b, d) of ints with d > 0 and gcd(a, b, d) = 1."""
    return (type(x) is GScalar and len(x) == 3 and all(type(v) is int for v in x)
            and x[2] > 0 and math.gcd(*x) == 1)


# operands by kind; "int" and "fraction" also take the reflected operators
_OPERANDS = {
    "real": st.builds(GScalar, small_fractions, st.just(Fraction(0))),
    "complex": st.builds(GScalar, small_fractions, small_fractions.filter(bool)),
    "int": st.integers(min_value=-5, max_value=5),
    "fraction": small_fractions,
}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("left, right", [
    ("real", "real"), ("real", "complex"), ("complex", "real"),
    ("complex", "complex"), ("int", "real"), ("int", "complex"),
    ("real", "int"), ("complex", "int"), ("fraction", "real"),
    ("fraction", "complex"), ("real", "fraction"), ("complex", "fraction"),
])
@given(data=st.data())
def test_arithmetic_matches_the_two_fraction_formulas(left, right, data):
    a, b = data.draw(_OPERANDS[left]), data.draw(_OPERANDS[right])
    for op, fn in _BINARY.items():
        if op == "/" and not isinstance(a, GScalar):
            with pytest.raises(TypeError):  # no reflected division
                fn(a, b)
            continue
        if op == "/" and not b:
            with pytest.raises(ZeroDivisionError):
                fn(a, b)
            continue
        got = fn(a, b)
        assert _is_reduced(got), op
        assert (got.re, got.im) == reference_scalar_op(op, a, b), op
    for x in (a, b):
        if isinstance(x, GScalar):
            for op, got in (("neg", -x), ("conjugate", x.conjugate())):
                assert _is_reduced(got), op
                assert (got.re, got.im) == reference_scalar_op(op, x), op


@given(small_fractions, small_fractions)
def test_construction_gives_the_reduced_triple(re, im):
    c = GScalar(re, im)
    assert _is_reduced(c)
    assert (c.re, c.im) == (re, im)
    assert Fraction(c[0], c[2]) == re and Fraction(c[1], c[2]) == im


def test_a_gscalar_equals_its_triple():
    c = GScalar(Fraction(1, 2), Fraction(-3, 4))
    assert tuple(c) == (2, -3, 4) and c == (2, -3, 4)
    assert hash(c) == hash((2, -3, 4))
    assert (ZERO, ONE, MINUS_ONE, I) == ((0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 1))


def test_repr_shows_the_two_parts():
    assert repr(GScalar(Fraction(1, 2), Fraction(-3, 4))) == "GScalar(1/2, -3/4)"
    assert repr(ONE) == "GScalar(1, 0)"
    assert repr(ZERO) == "GScalar(0, 0)"
    assert repr(-I) == "GScalar(0, -1)"


@pytest.mark.parametrize("other", [ONE, I, (1, 0, 1), 1])
@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_scalars_are_not_ordered(op, other):
    with pytest.raises(TypeError):
        op(ONE, other)
    with pytest.raises(TypeError):
        op(other, ONE)


@pytest.mark.parametrize("other", [(1, 2), (), (1, 0, 1)])
def test_a_tuple_is_not_added_to_a_scalar(other):
    # a plain tuple on either side is refused, not concatenated with the
    # triple, even ONE's own; int operands on the left (so sum()) still add
    for a, b in ((other, ONE), (ONE, other)):
        with pytest.raises(TypeError, match="unsupported operand"):
            a + b
    assert sum([ONE, I]) == ONE + I
    assert 0 + ONE == ONE and type(0 + ONE) is GScalar
    assert Fraction(1, 2) + I == GScalar(Fraction(1, 2), 1)


def test_a_string_operand_is_a_type_error():
    # each reflected or own operator returns NotImplemented for a string
    x = GScalar.of(1, 2)
    for op in (lambda: "a" + x, lambda: "a" - x, lambda: x / "a"):
        with pytest.raises(TypeError):
            op()


def test_of_adds_no_imaginary_part_to_a_gscalar():
    with pytest.raises(ValueError, match="cannot add an imaginary part"):
        GScalar.of(ONE, 1)


def test_is_zero():
    assert ZERO.is_zero() and GScalar.of(0).is_zero()
    assert not ONE.is_zero() and not I.is_zero()


@pytest.mark.parametrize("c", [ZERO, ONE, -I, GScalar(Fraction(-3, 4), Fraction(5, 6))])
def test_pickle_and_copy_round_trip(c):
    copies = [pickle.loads(pickle.dumps(c, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(c), copy.deepcopy(c), copy.deepcopy([c])[0]]
    for x in copies:
        assert x == c and type(x) is GScalar and _is_reduced(x)


def test_real_calculus_and_printing_make_no_fraction(monkeypatch):
    """d1, an element product and printing a real element run on the
    triples alone: no Fraction is made."""
    x = parse_alg("1/2 S1 S2* - 3/4 S3 + 2 S2 S1* S3* - 5/6")
    y = parse_alg("2/3 S2 - S3 S1* + 7/5 S1* S2*")
    omega = x * d0(y)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    d1(omega)
    x * y
    print_canonical(x)
    print_canonical(x, decimal=True)
    monkeypatch.undo()
    assert made == []


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
    ("GScalar(0.5, 0)", lambda: GScalar(0.5, 0), TypeError),
    ("GScalar(0, 0.5)", lambda: GScalar(0, 0.5), TypeError),
    ("GScalar(True, 0)", lambda: GScalar(True, 0), TypeError),
    ("GScalar(0, True)", lambda: GScalar(0, True), TypeError),
    ("GScalar('1/2', 0)", lambda: GScalar("1/2", 0), TypeError),
    ("rational(0.5)", lambda: rational(0.5), TypeError),
    ("rational(True)", lambda: rational(True), TypeError),
    ("rational(1, True)", lambda: rational(1, True), TypeError),
    ("rational('1/2')", lambda: rational("1/2"), TypeError),
    ("ONE + True", lambda: ONE + True, TypeError),
    ("S1 * True", lambda: S1 * True, TypeError),
    ("OneForm.of(True, 0, 0)", lambda: OneForm.of(True, 0, 0), TypeError),
    ("from_entries bool", lambda: TensorElem.from_entries(2, {(1, 2): True}), TypeError),
    ("Metric bool", lambda: Metric(_with_cell(True)),
     (MetricError, "metric entry is not a scalar: True")),
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
     lambda: Metric(_with_cell(GScalar.of(THIRD)))),
    ("load_metric GScalar", lambda: load_metric(_with_cell(ONE + I)),
     lambda: Metric(_with_cell(ONE + I))),
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
