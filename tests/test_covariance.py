"""SO(3) covariance of the geometry chain, as an oracle that shares no code
with its formulas.

The calculus comes from the rotation action on the three generators, so an
exact rotation M of the metric, g′ = MᵀGM, must move every output by a tensor
law: with Γ(i, j, k) the coefficient of e_j ⊗ e_k in ∇e_i and R_k(a, b, c)
that of e_a ⊗ e_b ⊗ e_c in the curvature on e_k,

    Γ′(i, j, k) = Σ M_ai M_bj M_ck Γ(a, b, c),
    R′_k(a, b, c) = Σ M_pk M_qa M_rb M_sc R_p(q, r, s),
    Ric′(i, j) = Σ M_ai M_bj Ric(a, b),
    Scal′ = Scal.

Rotating an element moves the derivations by the twisted matrix R = DMD
(see ``test_rotating_an_element_twists_the_derivations``), and with them d0
and d1 (``test_rotating_an_element_rotates_d0`` and
``test_rotating_a_one_form_rotates_d1``), and with them the presentations
of the basis one-forms as x d0(y)
(``test_rotating_the_presentations_rotates_the_basis``).  The laws are
computed here with plain ``GScalar`` and ``AlgElem`` sums over the public
outputs, never with a geometry helper.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import (AlgElem, Metric, OneForm, christoffel, curvature_report, d0, d1,
                      derive, rotate)
from cuntzgeo.scalars import ONE, ZERO

from support import (METRIC_CLASSES, NO_SHRINK, metrics, one_forms, rotations,
                     small_alg_elems)


def _rotate(m, table: dict, rank: int) -> dict:
    """Σ M_{a1 i1} ... M_{ak ik} table[a1..ak] at every 0-based (i1..ik)."""
    keys = list(itertools.product(range(3), repeat=rank))
    out = {}
    for i in keys:
        acc = ZERO
        for a in keys:
            term = table[a]
            for a_t, i_t in zip(a, i):
                term = term * m[a_t][i_t]
            acc = acc + term
        out[i] = acc
    return out


def _geometry(rows):
    """Γ, R (keyed (k, a, b, c)) and Ric as scalar tables keyed 0-based, and
    Scal."""
    rep = curvature_report(Metric(rows))
    gamma = {tuple(i - 1 for i in k): v.as_scalar()
             for k, v in christoffel(rep.connection).items()}
    curv = {(k, a, b, c): rep.curv[k].entry(a + 1, b + 1, c + 1).as_scalar()
            for k, a, b, c in itertools.product(range(3), repeat=4)}
    ric = {(a, b): rep.ric.entry(a + 1, b + 1).as_scalar()
           for a in range(3) for b in range(3)}
    return gamma, curv, ric, rep.scalar.as_scalar()


@given(rotations())
@settings(max_examples=25, deadline=None)
def test_rotations_are_exact_rotations(m):
    mt_m = _rotate(m, {(a, b): ONE if a == b else ZERO
                       for a in range(3) for b in range(3)}, 2)
    assert all(v == (ONE if i == j else ZERO) for (i, j), v in mt_m.items())
    det = sum((m[0][p[0]] * m[1][p[1]] * m[2][p[2]] * sign
               for p, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))),
              ZERO)
    assert det == ONE


@pytest.mark.parametrize("cls", METRIC_CLASSES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_rotating_the_metric_rotates_the_geometry(cls, data):
    g = data.draw(metrics(classes=(cls,), heights=(2, 8)), label="g")
    m = data.draw(rotations(), label="M")
    gamma, curv, ric, scal = _geometry(g.rows)
    g_rot = _rotate(m, {(a, b): g.rows[a][b] for a in range(3) for b in range(3)}, 2)
    gamma_rot, curv_rot, ric_rot, scal_rot = _geometry(
        [[g_rot[i, j] for j in range(3)] for i in range(3)])
    assert gamma_rot == _rotate(m, gamma, 3)
    assert curv_rot == _rotate(m, curv, 4)
    assert ric_rot == _rotate(m, ric, 2)
    assert scal_rot == scal


@given(rotations(), small_alg_elems)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_rotating_an_element_twists_the_derivations(m, x):
    """rotate(M, ∂_i x) = Σ_j (DMD)_ij ∂_j rotate(M, x), D = diag(1, -1, -1).

    ``rotate(M, .)`` sends S_a to Σ_b M_ab S_b, and ∂_i sends S_a to
    Σ_b (X_i)_ab S_b for the matrix X_i of ``GENERATOR_MATRICES``.  Both
    sides obey the Leibniz rule twisted by ``rotate(M, .)`` and commute
    with *, so the law holds once it holds on the generators, where it reads
    Mᵀ X_i M = Σ_j (DMD)_ij X_j.  The standard so(3) generators L_i
    (L_i w = e_i × w) satisfy Mᵀ L_i M = Σ_j M_ij L_j.  X_1 = L_1, but ∂₂
    and ∂₃ are the negatives of the standard generators, X_2 = -L_2 and
    X_3 = -L_3, so X_i = D_ii L_i and M turns into DMD.  With M or Mᵀ in
    its place the law fails.
    """
    d = (1, -1, -1)
    rx = rotate(m, x)
    for i in range(3):
        rhs = sum((derive(j + 1, rx).scale(m[i][j] * (d[i] * d[j])) for j in range(3)),
                  AlgElem.zero())
        assert rotate(m, derive(i + 1, x)).equals(rhs)


def _twisted(m):
    """R = DMD, for D = diag(1, -1, -1): R_ij = D_ii M_ij D_jj."""
    d = (1, -1, -1)
    return [[m[i][j] * (d[i] * d[j]) for j in range(3)] for i in range(3)]


def _apply(r, coeffs) -> list:
    """The column r · coeffs of three AlgElem: Σ_j r_ij coeffs[j] at each i."""
    return [sum((c.scale(r[i][j]) for j, c in enumerate(coeffs)), AlgElem.zero())
            for i in range(3)]


def _vec(two_form) -> tuple:
    """vec(c12, c13, c23) = (c23, -c13, c12): vec(α β) is the cross product
    α × β of the coefficient columns of two one-forms."""
    c12, c13, c23 = two_form.c
    return c23, -c13, c12


@given(rotations(), small_alg_elems)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_rotating_an_element_rotates_d0(m, x):
    """ρ(d0 x) = R d0(ρ x), for ρ = rotate(M, .) on each coefficient and
    R = DMD.

    The i-th coefficient of d0 x is ∂_i x, so the law is the derivation law,
    rotate(M, ∂_i x) = Σ_j R_ij ∂_j rotate(M, x), read coefficient by
    coefficient.
    """
    lhs = [rotate(m, c) for c in d0(x).c]
    rhs = _apply(_twisted(m), d0(rotate(m, x)).c)
    assert all(a.equals(b) for a, b in zip(lhs, rhs))


# e_i = x_i d0(y_i): e1 = S2* d0(S3), e2 = S1* d0(S3), e3 = -S1* d0(S2)
_PRESENTATIONS = ((AlgElem.generator(2).adjoint(), AlgElem.generator(3)),
                  (AlgElem.generator(1).adjoint(), AlgElem.generator(3)),
                  (-AlgElem.generator(1).adjoint(), AlgElem.generator(2)))


@given(rotations())
@settings(max_examples=25, deadline=None)
def test_rotating_the_presentations_rotates_the_basis(m):
    """ρ(x_i) d0(ρ(y_i)) = Σ_j R_ij e_j for the presentations e_i = x_i d0(y_i),
    with ρ and R = DMD as for d0.

    By the d0 law and RᵀR = I, d0(ρ y) = Rᵀ ρ(d0 y), with ρ on each
    coefficient.  Only the scalars of R move, and ρ is an automorphism, so
    ρ(x) d0(ρ y) = Rᵀ ρ(x d0 y).  For the presentations x_i d0(y_i) = e_i,
    whose coefficients are scalars that ρ fixes, that is Rᵀ applied to the
    i-th unit column: its coefficient on e_j is R_ij.  With R_ji in place of
    R_ij the law fails.
    """
    r = _twisted(m)
    for i, (x, y) in enumerate(_PRESENTATIONS):
        assert x * d0(y) == OneForm.basis(i + 1)
        lhs = rotate(m, x) * d0(rotate(m, y))
        assert all(c.equals(AlgElem.scalar(r[i][j])) for j, c in enumerate(lhs.c))


@given(rotations(), one_forms)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_rotating_a_one_form_rotates_d1(m, omega):
    """Rᵀ vec(ρ(d1 ω)) = vec(d1(Rᵀ ρ(ω))), for ρ and R = DMD as for d0.

    Let Φ(ω) = Rᵀ ρ(ω), the one-form with coefficients Σ_j R_ji ρ(ω_j), and
    Φ₂ the map on two-forms with vec(Φ₂ θ) = Rᵀ vec(ρ(θ)); the law reads
    Φ₂(d1 ω) = d1(Φ(ω)).
    - Φ(d0 x) = Rᵀ R d0(ρ x) = d0(ρ x) by the d0 law, as R is orthogonal.
    - Φ(x ω) = ρ(x) Φ(ω): the basis is central and ρ is an automorphism.
    - Φ₂(α β) = Φ(α) Φ(β): vec(α β) = α × β, and Rᵀa × Rᵀb = det(R) Rᵀ(a × b)
      with det(R) = det(M) = 1.  Only the scalars of R move, so this holds
      for noncommuting coefficients kept in the order of the factors.
    d1(x d0 y) = d0 x d0 y, and every one-form is a sum of such terms
    (e1 = S2* d0(S3), e2 = S1* d0(S3), e3 = -S1* d0(S2)), so
    Φ₂(d1(x d0 y)) = d0(ρ x) d0(ρ y) = d1(ρ(x) d0(ρ y)) = d1(Φ(x d0 y)).
    With R in place of Rᵀ the law fails.
    """
    rt = [list(col) for col in zip(*_twisted(m))]
    lhs = _apply(rt, _vec(OneForm(tuple(rotate(m, c) for c in d1(omega).c))))
    rhs = _vec(d1(OneForm(tuple(_apply(rt, [rotate(m, c) for c in omega.c])))))
    assert all(a.equals(b) for a, b in zip(lhs, rhs))
