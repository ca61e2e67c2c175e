"""Curvature of the Levi-Civita connection, Ricci contraction, scalar value."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import (
    AlgElem,
    Metric,
    TensorElem,
    curvature,
    curvature_operator,
    curvature_report,
    flip,
    levi_civita,
    ricci,
    scalar_curvature,
)
from cuntzgeo.scalars import GScalar, rational

import dense_oracle
from support import (
    NO_SHRINK,
    metrics,
    random_metric,
    reference_ricci,
    reference_scalar_curvature,
    scalar_connections,
    wide_scalar_connections,
)

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


def test_scalar_curvature_pairs_with_the_metric():
    g = Metric.diagonal(2, 3, 5)
    ric = TensorElem.basis(2, 2) + TensorElem.basis(1, 2)
    assert scalar_curvature(g, ric) == AlgElem.scalar(3)
    with pytest.raises(ValueError, match="rank-2"):
        scalar_curvature(g, TensorElem.basis(1, 1, 1))


@given(metrics(), scalar_connections, wide_scalar_connections)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_ricci_and_scal_equal_the_element_references(g, conn, wide):
    # Ricci and Scal by integer sums are structurally equal to the tensor
    # and element algebra of support.py, on the curvature of the
    # Levi-Civita connection of g (every metric class, entries up to 32
    # bits) and of random scalar connections, one of them complex over
    # several large denominators
    for c in (levi_civita(g), conn, wide):
        theta = curvature_operator(curvature(c))
        ric = ricci(theta)
        assert ric == reference_ricci(theta)
        assert scalar_curvature(g, ric) == reference_scalar_curvature(g, ric)


def test_ricci_and_scal_reject_non_scalar_entries():
    s1 = AlgElem.generator(1)
    g = Metric.identity()
    theta = curvature_operator(curvature(levi_civita(g)))
    theta[(1, 1, 2, 2)] = s1  # a contracted entry
    with pytest.raises(ValueError, match="not a scalar"):
        ricci(theta)
    # a contracted value that is not an element at all
    with pytest.raises(ValueError, match=r"curvature entry \(1, 1, 1, 1\) is not a scalar"):
        ricci({(1, 1, 1, 1): 5})
    ric = TensorElem.basis(2, 2) + TensorElem.basis(1, 2) * s1
    with pytest.raises(ValueError, match="not a scalar"):
        scalar_curvature(g, ric)


def test_ricci_checks_the_indices_it_contracts():
    """Every key of the caller's theta is checked before the contraction,
    contracted (c == k) or not: on the identity metric (1, 2, 4, 4) would
    turn Ric(1, 2) from 0 into 1, and (1, 2, 9, 4) would be skipped."""
    for key, message in (((4, 1, 2, 2), r"index \(4, 1, 2, 2\) outside 1..3"),
                         ((1, 2, 4, 4), r"index \(1, 2, 4, 4\) outside 1..3"),
                         ((1, 2, 9, 4), r"index \(1, 2, 9, 4\) outside 1..3"),
                         ((1, 2, 3), r"index \(1, 2, 3\) does not have rank 4"),
                         (5, r"index 5 does not have rank 4")):
        theta = curvature_operator(curvature(levi_civita(Metric.identity())))
        theta[key] = AlgElem.unit()
        with pytest.raises(ValueError, match=message):
            ricci(theta)


def test_curvature_report_bundles_everything():
    rep = curvature_report(Metric.identity())
    assert rep.scalar == AlgElem.scalar(rational(-3, 4))
    assert rep.ric.entry(1, 1) == AlgElem.scalar(rational(-1, 4))
    assert rep.metric == Metric.identity()
    assert len(rep.curv) == 3
    assert (2, 1, 2, 1) in rep.theta
