"""Grammar, diagnostics and the parse/print round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from cuntzgeo import (
    AlgElem,
    OneForm,
    ParseError,
    TwoForm,
    d0,
    d1,
    monomial,
    parse_alg,
    parse_expr,
    parse_one_form,
    parse_scalar,
    print_canonical,
)
from cuntzgeo.exprs import MAX_LITERAL_DIGITS, MAX_NESTING
from cuntzgeo.scalars import GScalar, rational

from support import alg_elems, one_forms, small_alg_elems


def test_parse_monomials():
    x = parse_alg("S1 S2* + 1/2 S3")
    expected = AlgElem.from_terms({
        monomial((1,), (2,)): 1,
        monomial((3,), ()): rational(1, 2),
    })
    assert x == expected


def test_parse_scalars():
    assert parse_scalar("3/4") == rational(3, 4)
    assert parse_scalar("-2") == rational(-2)
    assert parse_scalar("i") == GScalar.of(0, 1)
    assert parse_scalar("3/4i") == GScalar.of(0, rational(3, 4).re)
    assert parse_scalar("1/2 + 3/4i") == GScalar(rational(1, 2).re, rational(3, 4).re)


def test_adjoint_and_dot_product():
    assert parse_alg("S1* S1") == AlgElem.unit()
    assert parse_alg("S1.S2") == parse_alg("S1 S2")


def test_juxtaposition_without_space():
    assert parse_alg("S1S2") == parse_alg("S1 S2")


def test_differential_in_grammar():
    assert parse_expr("d(S1)") == d0(AlgElem.generator(1))
    w = parse_expr("d(e1 S2)")
    assert isinstance(w, TwoForm)
    assert w == d1(OneForm.of(AlgElem.generator(2), 0, 0))


def test_one_form_arithmetic():
    v = parse_one_form("e1 S2 - 1/2 e3")
    assert v.component(1) == AlgElem.generator(2)
    assert v.component(3) == AlgElem.scalar(rational(-1, 2))


def test_form_times_form_is_two_form():
    w = parse_expr("e1 e2")
    assert isinstance(w, TwoForm)
    assert w == TwoForm.basis(1, 2)
    assert parse_expr("e2 e1") == -TwoForm.basis(1, 2)


def test_canonical_examples():
    assert print_canonical(parse_expr("d(S1)")) == "- e2 S3 + e3 S2"
    assert print_canonical(parse_alg("S1 S2*")) == "S1 S2*"
    assert print_canonical(parse_alg("S2 S1 S3* S3*")) == "S2 S1 S3* S3*"
    assert print_canonical(parse_expr("S2* d(S3)")) == "e1"
    assert print_canonical(AlgElem.zero()) == "0"
    assert print_canonical(OneForm.zero()) == "0"


def test_mixed_coefficient_printing():
    c = GScalar(rational(1, 2).re, rational(-3, 4).re)
    x = AlgElem.generator(1).scale(c)
    text = print_canonical(x)
    assert text == "(1/2 - 3/4i) S1"
    assert parse_alg(text) == x


def test_pure_imaginary_printing():
    x = AlgElem.generator(2).scale(GScalar.of(0, 1))
    assert print_canonical(x) == "i S2"
    y = AlgElem.unit().scale(GScalar.of(0, -1))
    assert print_canonical(y) == "- i"


def test_decimal_mode():
    assert print_canonical(AlgElem.scalar(rational(3, 4)), decimal=True) == "0.75"
    assert print_canonical(AlgElem.scalar(rational(-3, 2)), decimal=True) == "- 1.5"
    # no finite expansion: stays a fraction
    assert print_canonical(AlgElem.scalar(rational(1, 3)), decimal=True) == "1/3"


# -- diagnostics --------------------------------------------------------------

@pytest.mark.parametrize("text,fragment,offset", [
    ("S1 +", "expected a scalar", 4),
    ("(S1", "closing ')'", 3),
    ("S4", "unexpected character", 0),
    ("e4", "unexpected character", 0),
    ("d S1", "'(' after 'd'", 2),
    ("S1* *", "adjoint '*'", 4),
    ("1/0", "zero denominator", 0),
    ("1.5", "decimal literals", 1),
    ("S1 ^ S2", "unexpected character", 3),
])
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert fragment in str(err.value)
    assert err.value.position == offset


def test_context_errors():
    with pytest.raises(ParseError, match="one-form symbol in algebra context"):
        parse_alg("e1")
    with pytest.raises(ParseError, match="two-form symbol"):
        parse_one_form("e12")
    with pytest.raises(ParseError, match="expected a one-form"):
        parse_one_form("S1")
    with pytest.raises(ParseError, match="different degree"):
        parse_expr("S1 + e1")
    with pytest.raises(ParseError, match="degree 2"):
        parse_expr("e1 e2 e3")
    with pytest.raises(ParseError, match="outside this calculus"):
        parse_expr("d(d(d(S1)))")
    with pytest.raises(ParseError, match="expected a scalar"):
        parse_scalar("S1")


def test_nesting_is_bounded():
    assert parse_expr("(" * MAX_NESTING + "S1" + ")" * MAX_NESTING) == parse_expr("S1")
    assert parse_expr("d(" + "(" * (MAX_NESTING - 1) + "S1" + ")" * MAX_NESTING) \
        == parse_expr("d(S1)")
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_expr("(" * (MAX_NESTING + 1) + "S1" + ")" * (MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING


def test_literal_length_is_bounded():
    digits = "7" * MAX_LITERAL_DIGITS
    assert parse_scalar(f"1/{digits}") == GScalar.of(Fraction(1, int(digits)))
    for text in (digits + "7", f"3/{digits}7 S1", f"S1 + {digits}7i"):
        with pytest.raises(ParseError, match="literal longer"):
            parse_expr(text)


def test_error_never_exits(capsys):
    # a diagnostic, not a crash or sys.exit
    try:
        parse_expr("d(")
    except ParseError as exc:
        assert exc.position == 2
    assert capsys.readouterr().out == ""


# -- round trips ---------------------------------------------------------------

@given(alg_elems)
@settings(max_examples=150)
def test_alg_round_trip(x):
    assert parse_alg(print_canonical(x)) == x


def test_decimal_mode_is_output_only():
    # decimal text is for reading, not for feeding back in
    with pytest.raises(ParseError, match="decimal literals"):
        parse_expr(print_canonical(AlgElem.scalar(rational(3, 4)), decimal=True))


@given(one_forms)
@settings(max_examples=100)
def test_one_form_round_trip(v):
    text = print_canonical(v)
    if v.is_zero():
        assert text == "0"
    else:
        assert parse_one_form(text) == v


@given(small_alg_elems, small_alg_elems, small_alg_elems)
@settings(max_examples=50)
def test_two_form_round_trip(a, b, c):
    w = TwoForm((a, b, c))
    parsed = parse_expr(print_canonical(w))
    if w.is_zero():
        assert parsed == AlgElem.zero() or parsed == TwoForm.zero()
    else:
        assert parsed == w
