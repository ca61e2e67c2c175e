"""SO(3) covariance of the geometry chain, as an oracle that shares no code
with its formulas.

The calculus comes from the rotation action on the three generators, so an
exact rotation M of the metric, g′ = MᵀGM, must move every output by a tensor
law: with Γ(i, j, k) the coefficient of e_j ⊗ e_k in ∇e_i,

    Γ′(i, j, k) = Σ M_ai M_bj M_ck Γ(a, b, c),
    Ric′(i, j) = Σ M_ai M_bj Ric(a, b),
    Scal′ = Scal.

The laws are computed here with plain ``GScalar`` sums over the public
outputs, never with a geometry helper.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import Metric, christoffel, curvature_report
from cuntzgeo.scalars import ONE, ZERO

from support import METRIC_CLASSES, NO_SHRINK, metrics, rotations


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
    """Γ and Ric as scalar tables keyed 0-based, and Scal."""
    rep = curvature_report(Metric.from_rows(rows))
    gamma = {tuple(i - 1 for i in k): v.as_scalar()
             for k, v in christoffel(rep.connection).items()}
    ric = {(a, b): rep.ric.entry(a + 1, b + 1).as_scalar()
           for a in range(3) for b in range(3)}
    return gamma, ric, rep.scalar.as_scalar()


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
    gamma, ric, scal = _geometry(g.rows)
    g_rot = _rotate(m, {(a, b): g.rows[a][b] for a in range(3) for b in range(3)}, 2)
    gamma_rot, ric_rot, scal_rot = _geometry(
        [[g_rot[i, j] for j in range(3)] for i in range(3)])
    assert gamma_rot == _rotate(m, gamma, 3)
    assert ric_rot == _rotate(m, ric, 2)
    assert scal_rot == scal
