"""The Levi-Civita connection of a constant metric is unique: one
determinant identity in place of a linear solve.

The argument, for a metric with constant entries G:
- Every torsion-free connection is the base connection plus a symmetric
  correction L.  The torsion of a connection is the wedge of its values
  plus d(e_i), the base connection is torsion-free, and the wedge kills a
  rank-2 tensor exactly when it is symmetric.
- Unitarity is linear in L.  The compatibility pairing is linear in the
  connection, and dg = 0, so base + L is unitary exactly when
  Φ_g vec(L) = −T, for T the pairing of the base connection and Φ_g the
  18×18 map from the 18 independent entries L^j(a, m), a <= m, to the
  pairing's components at (e_j, e_k), j <= k.  Its entries are entries of
  G, which are scalars, so the same holds for L with coefficients in the
  algebra: Φ_g acts on each coefficient.
- (a) det Φ_g = −2¹⁰·det(G)⁶, so Φ_g is invertible exactly when G is, and
  the L that makes base + L unitary is unique.
- (b) the Φ_g built here is the linear part of the tensor-algebra
  ``reference_compatibility``, which shares no code with
  ``cuntzgeo.geometry``.
- (c) ``levi_civita(g)`` is torsion-free and unitary on every metric class
  (``test_geometry.py::test_levi_civita_is_torsion_free_and_unitary``), so
  it is that unique connection.
  ``test_levi_civita_is_base_plus_koszul_in_canonical_form`` pins its form,
  base + a ``SymTensorMap``.

Why a few sampled metrics prove (a) (Schwartz, J. ACM 27(4), 1980; Zippel,
EUROSAM 1979).  Each entry of Φ_g is an entry of G or a sum of two, so
det Φ_g is a polynomial of degree at most 18 in the six entries of G, and
so is det(G)⁶.  If the identity were false, their difference would be a
nonzero polynomial of degree at most 18, and it would vanish at a point
drawn uniformly from N values per entry with probability at most 18/N.  A
part of height 32 is one of about 2⁶⁴ values, where that bound is
negligible; a part of height 2 is one of 15, where it says little.
Hypothesis does not draw uniformly, so the bound guides its draws rather
than guarantees them.  Diagonal metrics restrict the polynomial to the
diagonal, and the same bound holds for the restriction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import GScalar, Metric, SymTensorMap, TensorElem, base_connection
from cuntzgeo.scalars import ONE, ZERO

from support import METRIC_CLASSES, NO_SHRINK, gscalars, metrics, reference_compatibility

_SYM_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
# the unknowns L^j(a, m), a <= m, and the equations: component m at (e_j, e_k)
_UNKNOWNS = tuple((j, pair) for j in (1, 2, 3) for pair in _SYM_PAIRS)
_EQUATIONS = tuple((j, k, m) for j, k in _SYM_PAIRS for m in (1, 2, 3))


def _unknown(j: int, a: int, m: int) -> int:
    return _UNKNOWNS.index((j, (min(a, m), max(a, m))))


def _unitarity_map(rows) -> list[list[GScalar]]:
    """Φ_g for the 3x3 scalar array G: the row of component m at (e_j, e_k)
    reads sum_a G(a, k) L^j(a, m) + G(a, j) L^k(a, m)."""
    phi = [[ZERO] * len(_UNKNOWNS) for _ in _EQUATIONS]
    for row, (j, k, m) in enumerate(_EQUATIONS):
        for a in (1, 2, 3):
            phi[row][_unknown(j, a, m)] += rows[a - 1][k - 1]
            phi[row][_unknown(k, a, m)] += rows[a - 1][j - 1]
    return phi


def _det(matrix) -> GScalar:
    """The determinant by fraction-free (Bareiss) elimination: after step k
    every entry is a minor of the input divided by the previous pivot, so
    each division is exact.  A row swap flips the sign."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, ONE
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[-1][-1] * sign


def _expected_det(g: Metric) -> GScalar:
    d = g.det()
    d3 = d * d * d
    return GScalar.of(-2 ** 10) * d3 * d3


@pytest.mark.parametrize("cls", METRIC_CLASSES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_unitarity_map_determinant(cls, data):
    # (a) det Φ_g = −2¹⁰·det(G)⁶, at entries of height 2, 8 and 32
    g = data.draw(metrics(classes=(cls,)), label="g")
    assert _det(_unitarity_map(g.rows)) == _expected_det(g)


def test_unitarity_map_is_singular_with_the_metric():
    # (a) at a singular G, which Metric rejects: det Φ_g = 0; and at G = I
    z, o = ZERO, ONE
    assert _det(_unitarity_map(((o, o, z), (o, o, z), (z, z, o)))) == ZERO
    assert _det(_unitarity_map(Metric.identity().rows)) == GScalar.of(-2 ** 10)


@pytest.mark.parametrize("cls", METRIC_CLASSES)
@given(data=st.data())
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
def test_unitarity_map_is_the_compatibility_difference(cls, data):
    # (b) Φ_g vec(L) = pairing(base + L) − pairing(base), by the
    # tensor-algebra reference, for a random symmetric L
    g = data.draw(metrics(classes=(cls,)), label="g")
    vec = data.draw(st.lists(gscalars, min_size=18, max_size=18), label="L")
    correction = SymTensorMap(tuple(
        TensorElem.from_entries(2, {(a, m): vec[_unknown(j, a, m)]
                                    for a in (1, 2, 3) for m in (1, 2, 3)})
        for j in (1, 2, 3)))
    base = base_connection()
    shifted = reference_compatibility(g, base.shifted(correction))
    plain = reference_compatibility(g, base)
    for row, (j, k, m) in zip(_unitarity_map(g.rows), _EQUATIONS):
        want = sum((x * y for x, y in zip(row, vec)), ZERO)
        diff = shifted[j - 1][k - 1] - plain[j - 1][k - 1]
        assert diff.component(m).as_scalar() == want

