"""Derivations, rotations, forms and the two differentials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from cuntzgeo import (
    BASIS_DIFFERENTIALS,
    AlgElem,
    OneForm,
    TensorElem,
    TwoForm,
    antisym_lift,
    d0,
    d1,
    derive,
    flip,
    junk_project,
    one_form_tensor,
    represented_product,
    rotate,
    sym_project,
    tensor_product,
    wedge,
)
from cuntzgeo.scalars import GScalar, rational

from support import one_forms, rank2_tensors, reference_d1, small_alg_elems

S1, S2, S3 = (AlgElem.generator(i) for i in (1, 2, 3))


# -- the three derivations ----------------------------------------------------

DERIVATION_TABLE = {
    (1, 1): AlgElem.zero(), (1, 2): -S3, (1, 3): S2,
    (2, 1): -S3, (2, 2): AlgElem.zero(), (2, 3): S1,
    (3, 1): S2, (3, 2): -S1, (3, 3): AlgElem.zero(),
}


@pytest.mark.parametrize("i,j", [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
def test_derivation_table(i, j):
    assert derive(i, AlgElem.generator(j)) == DERIVATION_TABLE[(i, j)]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_derivation_kills_unit(i):
    assert derive(i, AlgElem.unit()).is_zero()


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=60)
def test_leibniz(a, b):
    for i in (1, 2, 3):
        lhs = derive(i, a * b)
        rhs = derive(i, a) * b + a * derive(i, b)
        assert lhs.equals(rhs)


@given(small_alg_elems)
@settings(max_examples=60)
def test_star_compatibility(a):
    for i in (1, 2, 3):
        assert derive(i, a.adjoint()).equals(derive(i, a).adjoint())


def _bracket(i, j, a):
    return derive(i, derive(j, a)) - derive(j, derive(i, a))


@pytest.mark.parametrize("i,j,k,sign", [
    (1, 2, 3, -1),
    (2, 3, 1, -1),
    (1, 3, 2, 1),
])
def test_commutators_on_generators(i, j, k, sign):
    for g in (S1, S2, S3, S1.adjoint(), S2.adjoint(), S3.adjoint()):
        assert _bracket(i, j, g) == derive(k, g).scale(GScalar.of(sign))


# -- rotations ----------------------------------------------------------------

PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    (Fraction(-4, 5), Fraction(3, 5), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)
CYCLE = (  # even permutation: S1 -> S3 -> S2 -> S1
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
)


def test_rotate_pythagorean():
    got = rotate(PYTHAGOREAN, S1)
    want = S1.scale(GScalar.of(Fraction(3, 5))) + S2.scale(GScalar.of(Fraction(4, 5)))
    assert got == want


def test_rotate_permutation():
    assert rotate(CYCLE, S1) == S3
    assert rotate(CYCLE, S2) == S1
    assert rotate(CYCLE, S3) == S2


def test_rotate_rejects_non_orthogonal():
    bad = ((Fraction(2), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1)))
    with pytest.raises(ValueError, match="orthogonal"):
        rotate(bad, S1)


def test_rotate_rejects_reflection():
    refl = ((Fraction(-1), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1)))
    with pytest.raises(ValueError, match="determinant"):
        rotate(refl, S1)


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


@given(small_alg_elems)
@settings(max_examples=40)
def test_rotate_is_functorial(x):
    once = rotate(PYTHAGOREAN, rotate(CYCLE, x))
    combined = rotate(_matmul(CYCLE, PYTHAGOREAN), x)
    assert once == combined


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=40)
def test_rotate_is_an_automorphism(a, b):
    assert rotate(PYTHAGOREAN, a * b).equals(
        rotate(PYTHAGOREAN, a) * rotate(PYTHAGOREAN, b))
    assert rotate(PYTHAGOREAN, a.adjoint()) == rotate(PYTHAGOREAN, a).adjoint()


# -- one- and two-forms -------------------------------------------------------

def test_d0_of_first_generator():
    v = d0(S1)
    assert v == OneForm((AlgElem.zero(), -S3, S2))


def test_presentations_of_the_basis():
    assert (S2.adjoint() * d0(S3)) == OneForm.basis(1)
    assert (S1.adjoint() * d0(S3)) == OneForm.basis(2)
    assert -(S1.adjoint() * d0(S2)) == OneForm.basis(3)


def test_junk_example():
    rep = represented_product(d0(S1.adjoint()), d0(S1))
    assert rep.junk == AlgElem.scalar(2)
    assert all(c.is_zero() for c in rep.c)


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=40)
def test_d0_leibniz(a, b):
    lhs = d0(a * b)
    rhs = d0(a) * b + a * d0(b)
    assert lhs.equals(rhs)


@given(one_forms)
@settings(max_examples=60)
def test_d_squared_is_zero(v):
    assert d1(v * AlgElem.unit()).equals(d1(v)) # sanity on the call itself
    # d^2 = 0 on functions
    for comp in v.c:
        assert d1(d0(comp)).is_zero()


def test_basis_differentials_two_ways():
    e1 = S2.adjoint() * d0(S3)
    e2 = S1.adjoint() * d0(S3)
    e3 = -(S1.adjoint() * d0(S2))
    for i, pres in ((1, e1), (2, e2), (3, e3)):
        lhs = BASIS_DIFFERENTIALS[i - 1]
        rhs = d1(pres)
        assert lhs.equals(rhs)
    assert BASIS_DIFFERENTIALS[0] == TwoForm.basis(2, 3)
    assert BASIS_DIFFERENTIALS[1] == -TwoForm.basis(1, 3)
    assert BASIS_DIFFERENTIALS[2] == TwoForm.basis(1, 2)


def test_forms_of_different_degree_do_not_mix():
    assert OneForm.zero() != TwoForm.zero()
    assert not OneForm.zero().equals(TwoForm.zero())
    with pytest.raises(TypeError):
        OneForm.basis(1) + TwoForm.basis(1, 2)
    with pytest.raises(TypeError):
        TwoForm.basis(1, 2) - OneForm.basis(1)
    with pytest.raises(TypeError):
        TwoForm.basis(1, 2) * OneForm.basis(1)


def test_one_form_product_is_a_two_form():
    product = OneForm.basis(1) * OneForm.basis(2)
    assert type(product) is TwoForm
    assert product == TwoForm.basis(1, 2)
    assert OneForm.basis(2) * OneForm.basis(1) == -TwoForm.basis(1, 2)


def test_two_form_component_antisymmetry():
    w = TwoForm.basis(1, 2)
    assert w.component(1, 2) == AlgElem.unit()
    assert w.component(2, 1) == -AlgElem.unit()
    with pytest.raises(ValueError, match="indices"):
        w.component(1, 1)


# -- projections on rank-two tensors ------------------------------------------

@given(rank2_tensors)
@settings(max_examples=60)
def test_sym_project_is_idempotent(t):
    p = sym_project(t)
    assert sym_project(p).equals(p)


@given(rank2_tensors)
@settings(max_examples=60)
def test_flip_is_an_involution(t):
    assert flip(flip(t)).equals(t)


@given(rank2_tensors)
@settings(max_examples=60)
def test_wedge_kills_symmetric_part(t):
    assert wedge(sym_project(t)).is_zero()


@given(rank2_tensors)
@settings(max_examples=60)
def test_wedge_after_antisym_lift(t):
    w = wedge(t)
    assert wedge(antisym_lift(w)).equals(w)


def test_antisym_lift_of_basis():
    t = antisym_lift(TwoForm.basis(1, 2))
    half = GScalar.of(rational(1, 2).re)
    want = (TensorElem.basis(1, 2).scale(half)
            - TensorElem.basis(2, 1).scale(half))
    assert t.equals(want)


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_wedge_matches_represented_product(u, v):
    via_tensor = wedge(tensor_product(one_form_tensor(u), v))
    direct = u * v
    assert via_tensor.equals(direct)


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_d1_and_product_match_the_tensor_references(u, v):
    assert d1(u) == reference_d1(u)
    assert u * v == junk_project(represented_product(u, v))


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_junk_project_matches_rep(u, v):
    rep = represented_product(u, v)
    assert junk_project(rep).equals(TwoForm(rep.c))


def test_central_coefficients_commute_past_basis():
    # scalar coefficients slide freely through the basis one-forms
    c = AlgElem.scalar(rational(5, 7))
    v = OneForm.basis(2)
    assert (c * v) == (v * c)
