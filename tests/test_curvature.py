"""Curvature of the Levi-Civita connection, Ricci contraction, scalar value."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import (
    AlgElem,
    DualVector,
    Metric,
    OneForm,
    TensorElem,
    curvature,
    curvature_operator,
    curvature_report,
    curvature_step,
    dual_pairing,
    flip,
    levi_civita,
    metric_dual,
    ricci,
    scalar_curvature,
)
from cuntzgeo.scalars import GScalar, rational

import dense_oracle
from support import NO_SHRINK, metrics, random_metric

EIGHTH = rational(1, 8)
MINUS_EIGHTH = rational(-1, 8)


def test_curvature_at_identity():
    curv = curvature(levi_civita(Metric.identity()))
    for i in (1, 2, 3):
        expected = TensorElem.zero(3)
        for k in (1, 2, 3):
            if k == i:
                continue
            expected = expected + (
                TensorElem.basis(k, k, i).scale(EIGHTH)
                + TensorElem.basis(k, i, k).scale(MINUS_EIGHTH))
        assert curv[i - 1].equals(expected)


def test_curvature_step_is_right_linear():
    conn = levi_civita(Metric.identity())
    t = conn.value(2)
    a = AlgElem.generator(1) + AlgElem.generator(3).adjoint()
    assert curvature_step(conn, t * a).equals(curvature_step(conn, t) * a)


def test_theta_reindexes_curvature():
    conn = levi_civita(Metric.identity())
    curv = curvature(conn)
    theta = curvature_operator(curv)
    for (a, c, b, k), val in theta.items():
        assert val == curv[k - 1].entry(a, b, c)
    # a couple of spot values
    assert theta[(2, 1, 2, 1)] == AlgElem.scalar(EIGHTH)
    assert theta[(2, 2, 1, 1)] == AlgElem.scalar(MINUS_EIGHTH)


def test_ricci_at_identity():
    theta = curvature_operator(curvature(levi_civita(Metric.identity())))
    ric = ricci(theta)
    quarter = rational(-1, 4)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            want = AlgElem.scalar(quarter) if a == b else AlgElem.zero()
            assert ric.entry(a, b) == want


def test_ricci_agrees_with_naive_contraction():
    rng = random.Random(99)
    for _ in range(4):
        g = random_metric(rng)
        curv = curvature(levi_civita(g))
        ric = ricci(curvature_operator(curv))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                total = AlgElem.zero()
                for k in (1, 2, 3):
                    total = total + curv[k - 1].entry(a, k, b)
                assert ric.entry(a, b).equals(total)


def test_ricci_is_symmetric_at_identity():
    ric = ricci(curvature_operator(curvature(levi_civita(Metric.identity()))))
    assert flip(ric).equals(ric)


def test_scalar_curvature_identity():
    g = Metric.identity()
    ric = ricci(curvature_operator(curvature(levi_civita(g))))
    assert scalar_curvature(g, ric) == AlgElem.scalar(rational(-3, 4))


def test_scalar_curvature_scaled_identity():
    g = Metric.identity().scale(2)
    ric = ricci(curvature_operator(curvature(levi_civita(g))))
    # contraction is taken with g itself, so the value scales with g
    assert scalar_curvature(g, ric) == AlgElem.scalar(rational(-3, 2))


@given(metrics(heights=(2, 8)),
       st.fractions(min_value=-16, max_value=16, max_denominator=16).filter(bool))
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
def test_scaling_pins_the_scalar_contraction(g, lam):
    # g -> lam g leaves the connection, curvature and Ricci unchanged; Scal
    # pairs Ricci with g itself (not g^-1), so it scales by lam, not 1/lam
    lam = GScalar.of(lam)
    ric = ricci(curvature_operator(curvature(levi_civita(g))))
    scaled = g.scale(lam)
    scaled_ric = ricci(curvature_operator(curvature(levi_civita(scaled))))
    assert scaled_ric == ric
    assert scalar_curvature(scaled, scaled_ric) == scalar_curvature(g, ric).scale(lam)


def test_full_pipeline_matches_dense_oracle():
    rng = random.Random(31415)
    metrics = [Metric.identity(), Metric.diagonal(1, 1, 2)]
    metrics += [random_metric(rng) for _ in range(4)]
    for g in metrics:
        rows = [[g.entry(i, j).re for j in (1, 2, 3)] for i in (1, 2, 3)]
        _, dense_r, dense_ric, dense_scal = dense_oracle.full_pipeline(rows)

        conn = levi_civita(g)
        curv = curvature(conn)
        ric = ricci(curvature_operator(curv))
        scal = scalar_curvature(g, ric)

        for k in (1, 2, 3):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    for c in (1, 2, 3):
                        want = dense_r[k - 1][a - 1][b - 1][c - 1]
                        got = curv[k - 1].entry(a, b, c).as_scalar()
                        assert got is not None and got.im == 0 and got.re == want
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                got = ric.entry(a, b).as_scalar()
                assert got is not None and got.im == 0
                assert got.re == dense_ric[a - 1][b - 1]
        got_scal = scal.as_scalar()
        assert got_scal is not None and got_scal.im == 0
        assert got_scal.re == dense_scal


def test_metric_dual_and_pairing():
    g = Metric.diagonal(2, 3, 5)
    phi = metric_dual(g, 2)
    assert isinstance(phi, DualVector)
    assert dual_pairing(phi, OneForm.basis(2)) == AlgElem.scalar(3)
    assert dual_pairing(phi, OneForm.basis(1)).is_zero()


def test_curvature_report_bundles_everything():
    rep = curvature_report(Metric.identity())
    assert rep.scalar == AlgElem.scalar(rational(-3, 4))
    assert rep.ric.entry(1, 1) == AlgElem.scalar(rational(-1, 4))
    assert rep.metric == Metric.identity()
    assert len(rep.curv) == 3
    assert (2, 1, 2, 1) in rep.theta
