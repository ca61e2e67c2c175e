"""The acceptance gate.

Eleven externally agreed checks, every one an exact Gaussian-rational
equality (no tolerances anywhere).  Each test prints a single
``criterion NN PASS/FAIL`` line; run with ``pytest -s tests/test_acceptance.py``
to see them all.
"""

import contextlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

from cuntzgeo import (
    AlgElem,
    Metric,
    OneForm,
    TensorElem,
    TwoForm,
    BASIS_DIFFERENTIALS,
    base_connection,
    christoffel,
    curvature,
    curvature_operator,
    d0,
    d1,
    derive,
    flip,
    junk_project,
    koszul_correction,
    levi_civita,
    represented_product,
    ricci,
    scalar_curvature,
    sym_project,
    torsion,
    unitarity_residual,
    wedge,
)
from cuntzgeo.scalars import GScalar, rational

import dense_oracle
from support import random_elem, random_metric, random_rank2

S1, S2, S3 = (AlgElem.generator(i) for i in (1, 2, 3))
HALF = rational(1, 2)
EIGHTH = rational(1, 8)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    print(f"criterion {num:02d} PASS: {label}")


def cli(*argv):
    return subprocess.run([sys.executable, "-m", "cuntzgeo", *argv],
                          capture_output=True, text=True)


def identity_metric_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    return str(path)


def test_criterion_01_scalar_curvature(tmp_path):
    with criterion(1, "scalar curvature of the round metric is exactly -3/4"):
        g = Metric.identity()
        ric = ricci(curvature_operator(curvature(levi_civita(g))))
        assert scalar_curvature(g, ric) == AlgElem.scalar(rational(-3, 4))
        out = cli("curvature", identity_metric_file(tmp_path))
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "scalar = - 3/4"


def test_criterion_02_ricci_tensor():
    with criterion(2, "Ricci is -1/4 on each diagonal pair and 0 elsewhere"):
        g = Metric.identity()
        ric = ricci(curvature_operator(curvature(levi_civita(g))))
        minus_quarter = AlgElem.scalar(rational(-1, 4))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                want = minus_quarter if a == b else AlgElem.zero()
                assert ric.entry(a, b) == want


def test_criterion_03_christoffel_symbols():
    with criterion(3, "Christoffel table: six entries of +-1/2, the other 21 zero"):
        gamma = christoffel(levi_civita(Metric.identity()))
        plus = {(1, 3, 2), (2, 1, 3), (3, 2, 1)}
        minus = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
        assert len(gamma) == 27
        for key, val in gamma.items():
            if key in plus:
                assert val == AlgElem.scalar(HALF)
            elif key in minus:
                assert val == AlgElem.scalar(-HALF)
            else:
                assert val.is_zero()


def test_criterion_04_curvature_values():
    with criterion(4, "R(e_i) equals the +-1/8 closed form for i = 1, 2, 3"):
        curv = curvature(levi_civita(Metric.identity()))
        for i in (1, 2, 3):
            closed = TensorElem.zero(3)
            for k in (1, 2, 3):
                if k == i:
                    continue
                closed = closed + (TensorElem.basis(k, k, i).scale(EIGHTH)
                                   - TensorElem.basis(k, i, k).scale(EIGHTH))
            got = curv[i - 1]
            assert got.equals(closed)
            # exactly the four surviving entries, nothing hidden
            assert len(got.entries) == 4
            for idx, c in got.entries:
                assert c.as_scalar() in (EIGHTH, -EIGHTH)


def test_criterion_05_one_form_identities():
    with criterion(5, "S1*d(S2) = -e3, S1*d(S3) = e2, S2*d(S3) = e1"):
        assert (S1.adjoint() * d0(S2)) == -OneForm.basis(3)
        assert (S1.adjoint() * d0(S3)) == OneForm.basis(2)
        assert (S2.adjoint() * d0(S3)) == OneForm.basis(1)


def test_criterion_06_junk_computation():
    with criterion(6, "rep product of d(S1*), d(S1): unit part 2, wedge part 0"):
        rep = represented_product(d0(S1.adjoint()), d0(S1))
        assert rep.junk == AlgElem.scalar(2)
        assert all(c.is_zero() for c in rep.c)
        assert junk_project(rep).is_zero()


def test_criterion_07_basis_differentials():
    with criterion(7, "de_i from the constant table and from presentations agree"):
        pres = (
            junk_project(represented_product(d0(S2.adjoint()), d0(S3))),
            junk_project(represented_product(d0(S1.adjoint()), d0(S3))),
            -junk_project(represented_product(d0(S1.adjoint()), d0(S2))),
        )
        assert BASIS_DIFFERENTIALS[0] == TwoForm.basis(2, 3)
        assert BASIS_DIFFERENTIALS[1] == -TwoForm.basis(1, 3)
        assert BASIS_DIFFERENTIALS[2] == TwoForm.basis(1, 2)
        for table, computed in zip(BASIS_DIFFERENTIALS, pres):
            assert table.equals(computed)


def test_criterion_08_torsion_and_unitarity():
    with criterion(8, "Levi-Civita is torsion-free and metric-compatible "
                      "(identity, doubled, diag(1,1,2), seeded random)"):
        rng = random.Random(20260814)
        metrics = [
            Metric.identity(),
            Metric.identity().scale(2),
            Metric.diagonal(1, 1, 2),
            random_metric(rng),
        ]
        for g in metrics:
            conn = levi_civita(g)
            for t in torsion(conn):
                assert t.is_zero()
            for row in unitarity_residual(g, conn):
                for v in row:
                    assert v.is_zero()


def test_criterion_09_koszul_cross_validation():
    with criterion(9, "closed-form correction gives the dense oracle's "
                      "Levi-Civita connection at the round metric"):
        g = Metric.identity()
        correction = koszul_correction(g)
        minus_half = AlgElem.scalar(-HALF)
        seen_nonzero = 0
        for j in (1, 2, 3):
            for idx, c in correction.value(j).entries:
                if not c.is_zero():
                    assert c == minus_half
                    seen_nonzero += 1
        assert seen_nonzero == 6
        # the independent reference: textbook elimination over Fractions
        dense = dense_oracle.lc_gamma([[Fraction(int(i == j)) for j in range(3)]
                                       for i in range(3)])
        gamma = christoffel(base_connection().shifted(correction))
        for i, j, k in itertools.product((1, 2, 3), repeat=3):
            assert gamma[(i, j, k)].as_scalar() == GScalar(dense[i - 1][j - 1][k - 1])


def test_criterion_10_invariant_suite():
    with criterion(10, "Leibniz, *-compatibility, d^2 = 0, projection algebra, "
                       "normal form vs action oracle"):
        rng = random.Random(424242)

        for _ in range(100):
            a = random_elem(rng)
            b = random_elem(rng)
            for i in (1, 2, 3):
                assert derive(i, a * b).equals(derive(i, a) * b + a * derive(i, b))
            assert derive(1, a.adjoint()).equals(derive(1, a).adjoint())
            assert derive(2, a.adjoint()).equals(derive(2, a).adjoint())
            assert derive(3, a.adjoint()).equals(derive(3, a).adjoint())

        d2_targets = [S1, S2, S3, S1.adjoint(), S2.adjoint(), S3.adjoint()]
        d2_targets += [random_elem(rng, max_degree=3) for _ in range(50)]
        for a in d2_targets:
            assert d1(d0(a)).is_zero()

        for _ in range(50):
            t = random_rank2(rng)
            assert wedge(sym_project(t)).is_zero()
            assert flip(flip(t)).equals(t)

        for _ in range(100):
            x = random_elem(rng)
            y = random_elem(rng)
            level = max((len(m.nu) for m, _ in (x - y).terms), default=0)
            words = [()]
            for _ in range(level + 1):
                words = [w + (ell,) for w in words for ell in (1, 2, 3)]
            same_action = all(x.tree_action(w) == y.tree_action(w) for w in words)
            assert x.equals(y) == same_action


def test_criterion_11_verify_paper_report():
    with criterion(11, "verify-paper exits 0 with the bracket-sign note "
                       "recorded as informational"):
        out = cli("verify-paper", "--json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["result"] == "pass"
        info = [c for c in doc["checks"] if c["status"] == "info"]
        assert len(info) == 1
        assert "bracket" in info[0]["id"]
        assert all(c["status"] in ("pass", "info") for c in doc["checks"])
