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

Rotating an element moves the derivations by the twisted matrix DMD (see
``test_rotating_an_element_twists_the_derivations``).  The laws are computed
here with plain ``GScalar`` and ``AlgElem`` sums over the public outputs,
never with a geometry helper.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import AlgElem, Metric, christoffel, curvature_report, derive, rotate
from cuntzgeo.scalars import ONE, ZERO

from support import METRIC_CLASSES, NO_SHRINK, metrics, rotations, small_alg_elems


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
    rep = curvature_report(Metric.from_rows(rows))
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
