"""Metrics, connections, the compatibility pairing and the Levi-Civita connection."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cuntzgeo import (
    AlgElem,
    Connection,
    Metric,
    MetricError,
    SymTensorMap,
    TensorElem,
    base_connection,
    christoffel,
    compatibility_map,
    curvature,
    flip,
    koszul_correction,
    levi_civita,
    load_metric,
    sym_project,
    torsion,
    unitarity_residual,
)
from cuntzgeo.scalars import GScalar, rational

import dense_oracle
from support import (
    NO_SHRINK,
    levi_civita_by_solve,
    metrics,
    random_metric,
    random_rank2,
    reference_compatibility,
    reference_curvature,
    scalar_connections,
    small_fractions,
)


def g_of(x):
    return GScalar.of(Fraction(x))


HALF = rational(1, 2)
MINUS_HALF = rational(-1, 2)


# -- Metric construction and validation ---------------------------------------

def test_identity_metric():
    g = Metric.identity()
    assert g.entry(1, 1) == g_of(1)
    assert g.entry(1, 2) == g_of(0)
    assert g.det() == g_of(1)


def test_metric_rejects_asymmetric():
    with pytest.raises(MetricError, match="symmetric"):
        Metric.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]])


def test_metric_rejects_singular():
    with pytest.raises(MetricError, match="determinant"):
        Metric.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_metric_rejects_bad_shape():
    with pytest.raises(MetricError, match="3x3"):
        Metric.from_rows([[1, 0], [0, 1]])


def test_metric_apply_pairs_first_two_legs():
    g = Metric.diagonal(2, 3, 5)
    t = TensorElem.basis(2, 2)
    assert g.apply(t) == AlgElem.scalar(3)


def test_load_metric_from_list():
    g = load_metric([["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "1"]])
    assert g.entry(1, 2) == g_of(Fraction(1, 2))


def test_load_metric_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, "3/2"]]))
    g = load_metric(path)
    assert g.entry(3, 3) == g_of(Fraction(3, 2))


def test_load_metric_rejects_floats(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("[[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]")
    with pytest.raises(MetricError, match="float"):
        load_metric(path)


def test_load_metric_rejects_bools():
    with pytest.raises(MetricError):
        load_metric([[True, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_load_metric_rejects_garbage_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(MetricError, match="JSON"):
        load_metric(path)


def test_load_metric_missing_file(tmp_path):
    with pytest.raises(MetricError, match="metric file"):
        load_metric(tmp_path / "absent.json")


def test_load_metric_rejects_non_matrix():
    with pytest.raises(MetricError):
        load_metric([["1", "0"], ["0", "1"]])


def test_load_metric_rejects_bad_entry_string():
    with pytest.raises(MetricError):
        load_metric([["po/tato", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


# -- connections ---------------------------------------------------------------

def test_base_connection_values():
    c = base_connection()
    assert c.value(1) == TensorElem.basis(3, 2)
    assert c.value(2) == TensorElem.basis(1, 3)
    assert c.value(3) == TensorElem.basis(2, 1)


def test_base_connection_is_torsion_free():
    for t in torsion(base_connection()):
        assert t.is_zero()


def test_connection_requires_rank2():
    with pytest.raises(ValueError, match="rank-2"):
        Connection((TensorElem.basis(1), TensorElem.basis(1), TensorElem.basis(1)))


def test_sym_tensor_map_rejects_asymmetric():
    t = TensorElem.basis(1, 2)  # not symmetric under leg swap
    with pytest.raises(ValueError, match="symmetric"):
        SymTensorMap((t, t, t))


# -- compatibility pairing ------------------------------------------------------

def test_compatibility_table_at_identity():
    pi = compatibility_map(Metric.identity(), base_connection())
    basis = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    for m, (i, j) in basis.items():
        v = pi[i - 1][j - 1]
        assert v.component(m) == AlgElem.unit()
    for i in (1, 2, 3):
        assert pi[i - 1][i - 1].is_zero()


@given(metrics(), scalar_connections)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_index_arithmetic_equals_the_tensor_references(g, conn):
    # compatibility, unitarity and curvature by index arithmetic on the
    # Christoffel table are structurally equal to the tensor-algebra
    # references in support.py, on a random scalar connection (neither
    # symmetric nor Levi-Civita) and on the Levi-Civita connection of g
    for c in (conn, levi_civita(g)):
        reference = reference_compatibility(g, c)
        assert compatibility_map(g, c) == reference
        assert unitarity_residual(g, c) == reference
        assert curvature(c) == reference_curvature(c)


def test_non_scalar_christoffel_symbols_are_rejected():
    s1 = AlgElem.generator(1)
    base = base_connection()
    conn = Connection((TensorElem.basis(1, 1) * s1, base.value(2), base.value(3)))
    with pytest.raises(ValueError, match="not a scalar"):
        compatibility_map(Metric.identity(), conn)
    with pytest.raises(ValueError, match="not a scalar"):
        curvature(conn)


# -- the Levi-Civita connection --------------------------------------------------

def test_levi_civita_at_identity():
    conn = levi_civita(Metric.identity())
    gamma = christoffel(conn)
    expected_half = {(1, 3, 2), (2, 1, 3), (3, 2, 1)}
    expected_minus = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    for key, val in gamma.items():
        if key in expected_half:
            assert val == AlgElem.scalar(HALF)
        elif key in expected_minus:
            assert val == AlgElem.scalar(MINUS_HALF)
        else:
            assert val.is_zero()


def test_levi_civita_diag_1_1_2():
    conn = levi_civita(Metric.diagonal(1, 1, 2))
    gamma = christoffel(conn)
    q = Fraction(1, 4)
    assert gamma[(1, 3, 2)] == AlgElem.scalar(GScalar.of(q))
    assert gamma[(1, 2, 3)] == AlgElem.scalar(GScalar.of(-3 * q))
    assert gamma[(2, 1, 3)] == AlgElem.scalar(GScalar.of(3 * q))
    assert gamma[(2, 3, 1)] == AlgElem.scalar(GScalar.of(-q))
    assert gamma[(3, 2, 1)] == AlgElem.scalar(HALF)
    assert gamma[(3, 1, 2)] == AlgElem.scalar(MINUS_HALF)


def test_levi_civita_matches_dense_oracle_on_seeded_metrics():
    rng = random.Random(20260814)
    for _ in range(6):
        g = random_metric(rng)
        conn = levi_civita(g)
        gamma = christoffel(conn)
        rows = [[g.entry(i, j).re for j in (1, 2, 3)] for i in (1, 2, 3)]
        dense = dense_oracle.lc_gamma(rows)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    want = dense[i - 1][j - 1][k - 1]
                    got = gamma[(i, j, k)].as_scalar()
                    assert got is not None and got.im == 0
                    assert got.re == want


@given(metrics())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
def test_levi_civita_equals_the_unitarity_solve(g):
    # the closed form against the 18x18 exact solve of the unitarity
    # equations, on every metric class with entries up to 32 bits
    assert levi_civita(g) == levi_civita_by_solve(g)


def test_levi_civita_is_torsion_free_and_unitary():
    rng = random.Random(7)
    metrics = [Metric.identity(), Metric.identity().scale(2),
               Metric.diagonal(1, 1, 2)]
    metrics += [random_metric(rng) for _ in range(4)]
    for g in metrics:
        conn = levi_civita(g)
        for t in torsion(conn):
            assert t.is_zero()
        for row in unitarity_residual(g, conn):
            for v in row:
                assert v.is_zero()


def test_levi_civita_scaling_invariance():
    g = Metric.diagonal(1, 1, 2)
    a = christoffel(levi_civita(g))
    b = christoffel(levi_civita(g.scale(GScalar.of(Fraction(7, 3)))))
    assert a == b


def test_perturbed_connection_breaks_unitarity():
    # uniqueness, negatively: nudging one Christoffel symbol must show up
    # in the compatibility residual
    g = Metric.identity()
    conn = levi_civita(g)
    bump = TensorElem.from_entries(2, {(1, 1): AlgElem.scalar(rational(1, 5))})
    vals = (conn.value(1) + bump, conn.value(2), conn.value(3))
    residual = unitarity_residual(g, Connection(vals))
    assert any(not v.is_zero() for row in residual for v in row)


# -- the closed form -------------------------------------------------------------

def test_koszul_matches_solver_at_identity():
    g = Metric.identity()
    shortcut = base_connection().shifted(koszul_correction(g))
    solved = levi_civita(g)
    for i in (1, 2, 3):
        assert shortcut.value(i).equals(solved.value(i))


def test_connection_apply_right_leibniz():
    conn = base_connection()
    a = AlgElem.generator(2)
    from cuntzgeo import OneForm, d0, one_form_tensor, tensor_product

    lhs = conn.apply(OneForm.of(a, 0, 0))
    rhs = conn.value(1) * a + tensor_product(
        one_form_tensor(OneForm.basis(1)), d0(a))
    assert lhs.equals(rhs)
