"""Pseudo-Riemannian geometry of the rank-3 one-form module.

A metric is a symmetric invertible 3x3 matrix of exact scalars, read as the
bilinear pairing ``g(e_i ⊗ e_j) = g[i][j]`` extended right-linearly.  A
connection assigns each basis one-form a rank-2 tensor and extends to the
whole module by the right Leibniz rule.

The metric is constant, so every connection built here has scalar
Christoffel symbols Gamma_i(a, b), the coefficient of e_a ⊗ e_b in
conn(e_i), and the geometry is index arithmetic on that 3x3x3 table.
``compatibility_map(g, conn)`` measures how far the connection is from
being metric: on (e_i, e_j) its e_b component is

    sum_a Gamma_i(a, b) g(a, j) + Gamma_j(a, b) g(a, i),

which is conn(e_i) ⊗ e_j symmetrized over (i, j), with the middle legs
swapped and the first two legs paired with the metric.  A connection is
unitary (metric-compatible) when this equals the differential of the
metric, which is zero for constant entries; ``unitarity_residual`` is the
difference.

``levi_civita(g)`` adds to the canonical torsion-free connection the unique
symmetric correction L that makes it unitary.  ``koszul_correction`` gives L
in closed form for every invertible symmetric metric: Koszul's formula on
3x3 arrays of scalars, with g⁻¹ from the adjugate.  No linear system is
solved.  Results are wrapped as ``OneForm``/``TensorElem`` values once, on
return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .algebra import AlgElem
from .calculus import (
    BASIS_DIFFERENTIALS,
    OneForm,
    TensorElem,
    TwoForm,
    _det3,
    derive,
    sym_project,
    wedge,
)
# Not called here.  Kept as a module attribute because bench/spans.py wraps
# cuntzgeo.geometry.solve_exact when it traces a run.
from .linsolve import solve_exact  # noqa: F401
from .scalars import GScalar, ZERO


class MetricError(ValueError):
    """The metric input violates shape, exactness, symmetry or invertibility."""


_INDICES = (1, 2, 3)


@dataclass(frozen=True)
class Metric:
    """Symmetric invertible bilinear pairing on the one-form module."""

    rows: tuple[tuple[GScalar, GScalar, GScalar], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise MetricError("metric must be a 3x3 array")
        for i in range(3):
            for j in range(i + 1, 3):
                if self.rows[i][j] != self.rows[j][i]:
                    raise MetricError("metric not symmetric")
        if not self.det():
            raise MetricError("metric not invertible (determinant is zero)")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[GScalar | int]]) -> "Metric":
        return Metric(tuple(tuple(GScalar.of(x) for x in row) for row in rows))

    @staticmethod
    def identity() -> "Metric":
        return Metric.diagonal(1, 1, 1)

    @staticmethod
    def diagonal(a: GScalar | int, b: GScalar | int, c: GScalar | int) -> "Metric":
        z = ZERO
        return Metric.from_rows(((a, z, z), (z, b, z), (z, z, c)))

    def entry(self, i: int, j: int) -> GScalar:
        return self.rows[i - 1][j - 1]

    def det(self) -> GScalar:
        return _det3(self.rows)

    def apply(self, t: TensorElem) -> AlgElem:
        """Pair a rank-2 tensor: sum of g(e_a ⊗ e_b) times the coefficient."""
        if t.rank != 2:
            raise ValueError("the metric pairs rank-2 tensors")
        acc = AlgElem.zero()
        for (a, b), c in t.entries:
            acc = acc + c.scale(self.entry(a, b))
        return acc

    def scale(self, s: GScalar | int) -> "Metric":
        s = GScalar.of(s)
        return Metric.from_rows(
            tuple(tuple(s * x for x in row) for row in self.rows))


def load_metric(source: "str | Path | Sequence[Sequence[object]]") -> Metric:
    """Build a metric from a JSON file path or an already-decoded 3x3 array.

    Entries are expression strings in the scalar grammar or plain ints;
    floats are rejected (the engine is exact).
    """
    from .exprs import ParseError, parse_scalar  # deferred: exprs imports calculus

    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise MetricError(f"cannot read metric file: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MetricError(f"metric file is not valid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, list) or len(data) != 3 or any(
            not isinstance(row, list) or len(row) != 3 for row in data):
        raise MetricError("metric must be a 3x3 array")
    rows = []
    for row in data:
        out_row = []
        for cell in row:
            if isinstance(cell, bool):
                raise MetricError(f"metric entry is not a scalar: {cell!r}")
            if isinstance(cell, int):
                out_row.append(GScalar.of(cell))
            elif isinstance(cell, float):
                raise MetricError(
                    f"metric entry {cell!r} is a float; use an exact string like \"1/2\"")
            elif isinstance(cell, str):
                try:
                    out_row.append(parse_scalar(cell))
                except ParseError as exc:
                    raise MetricError(f"bad metric entry {cell!r}: {exc}") from exc
            else:
                raise MetricError(f"metric entry is not a scalar: {cell!r}")
        rows.append(tuple(out_row))
    return Metric(tuple(rows))


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    """A right connection, determined by its rank-2 values on e1, e2, e3."""

    vals: tuple[TensorElem, TensorElem, TensorElem]

    def __post_init__(self) -> None:
        if any(v.rank != 2 for v in self.vals):
            raise ValueError("connection values must be rank-2 tensors")

    def value(self, i: int) -> TensorElem:
        return self.vals[i - 1]

    def apply(self, omega: OneForm) -> TensorElem:
        """Right Leibniz extension: conn(e_i a) = conn(e_i) a + e_i ⊗ d0(a)."""
        acc = TensorElem.zero(2)
        for i in _INDICES:
            a = omega.component(i)
            if a.is_zero():
                continue
            acc = acc + self.vals[i - 1] * a
            for j in _INDICES:
                da = derive(j, a)
                if not da.is_zero():
                    acc = acc + TensorElem.from_entries(2, {(i, j): da})
        return acc

    def shifted(self, correction: "SymTensorMap") -> "Connection":
        return Connection(tuple(v + c for v, c in zip(self.vals, correction.vals)))


def base_connection() -> Connection:
    """The canonical torsion-free connection: e1 -> e3⊗e2, e2 -> e1⊗e3,
    e3 -> e2⊗e1."""
    return Connection((TensorElem.basis(3, 2),
                       TensorElem.basis(1, 3),
                       TensorElem.basis(2, 1)))


def torsion(conn: Connection) -> tuple[TwoForm, TwoForm, TwoForm]:
    """Torsion on the basis: wedge the connection value and add d(e_i)."""
    return tuple(wedge(conn.vals[i - 1]) + BASIS_DIFFERENTIALS[i - 1]
                 for i in _INDICES)


@dataclass(frozen=True)
class SymTensorMap:
    """A symmetric-rank-2-tensor value on each basis one-form."""

    vals: tuple[TensorElem, TensorElem, TensorElem]

    def __post_init__(self) -> None:
        for v in self.vals:
            if v.rank != 2:
                raise ValueError("values must be rank-2 tensors")
            entries = v.entry_map()
            if all(entries.get((b, a)) == c for (a, b), c in entries.items()):
                continue  # symmetric entry by entry, so no need to decide it
            if not sym_project(v).equals(v):
                raise ValueError("values must be symmetric tensors")

    def value(self, i: int) -> TensorElem:
        return self.vals[i - 1]


# ---------------------------------------------------------------------------
# Christoffel tables and the compatibility pairing
# ---------------------------------------------------------------------------

# Index arithmetic runs on plain nested lists of exact numbers, 0-based:
# each 3x3 array holds Fractions when all its entries are real and GScalars
# otherwise (the two mix), with int 0 and 1 in the base table.
Matrix3 = list[list]

# base_connection() as a Christoffel table: e_i -> e_a ⊗ e_b for the single
# nonzero _BASE_TABLE[i][a][b] = 1
_BASE_TABLE = [[[1 if (a, b) == legs else 0 for b in range(3)] for a in range(3)]
               for legs in ((2, 1), (0, 2), (1, 0))]


def _numbers(rows) -> Matrix3:
    """An array of GScalars as Fractions when every entry is real (exact
    arithmetic on Fraction is several times faster), else as GScalars."""
    if all(x.is_real for row in rows for x in row):
        return [[x.re for x in row] for row in rows]
    return [list(row) for row in rows]


def _christoffel_table(conn: Connection) -> list[Matrix3]:
    """Gamma[i][a][b], the scalar of conn.value(i + 1).entry(a + 1, b + 1).

    Raises ValueError when a coefficient is not a scalar multiple of 1: the
    index formulas hold for scalar Christoffel symbols only.
    """
    table = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for i, value in enumerate(conn.vals):
        for (a, b), c in value.entries:
            s = c.as_scalar()
            if s is None:
                raise ValueError(
                    f"connection coefficient ({i + 1}, {a}, {b}) is not a scalar")
            table[i][a - 1][b - 1] = s
    return [_numbers(t) for t in table]


def _matmul(a: Matrix3, b: Matrix3) -> Matrix3:
    """Product of an n x 3 and a 3x3 array, skipping the zero entries of
    ``a``."""
    return [[sum(x * b[m][k] for m, x in enumerate(row) if x)
             for k in range(3)] for row in a]


def _compatibility(gamma: list[Matrix3], r: Matrix3) -> list[Matrix3]:
    """C[i][j][b] = sum_a gamma[i][a][b] g(a,j) + gamma[j][a][b] g(a,i): the
    e_b component of the compatibility pairing at (e_i, e_j) for the
    Christoffel table gamma and the metric rows r.

    It is conn(e_i) ⊗ e_j + conn(e_j) ⊗ e_i with legs 2 and 3 swapped and the
    first two legs paired with the metric.
    """
    # p[i][b][j] = sum_a gamma[i][a][b] g(a,j), the transposed table times g
    p = [_matmul(list(zip(*gi)), r) for gi in gamma]
    return [[[p[i][b][j] + p[j][b][i] for b in range(3)] for j in range(3)]
            for i in range(3)]


def compatibility_map(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """How the connection differentiates the metric: the one-form
    ``[i - 1][j - 1]`` is the pairing on the basis pair (e_i, e_j)."""
    c = _compatibility(_christoffel_table(conn), _numbers(g.rows))
    return tuple(tuple(OneForm.of(*v) for v in row) for row in c)


def unitarity_residual(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """Compatibility minus the differential of the metric on every basis
    pair.  The metric entries are constants, so dg = 0 and the residual is
    ``compatibility_map(g, conn)`` itself; it vanishes exactly when the
    connection is unitary (metric-compatible)."""
    return compatibility_map(g, conn)


# ---------------------------------------------------------------------------
# the Levi-Civita connection in closed form
# ---------------------------------------------------------------------------

def _inverse(r: Matrix3, det) -> Matrix3:
    """The inverse as the adjugate over the determinant (nonzero for every
    Metric)."""
    inv_det = 1 / det
    return [[(r[(j + 1) % 3][(i + 1) % 3] * r[(j + 2) % 3][(i + 2) % 3]
              - r[(j + 1) % 3][(i + 2) % 3] * r[(j + 2) % 3][(i + 1) % 3]) * inv_det
             for j in range(3)] for i in range(3)]


def levi_civita(g: Metric) -> Connection:
    """The unique torsion-free unitary connection for the metric.

    The base connection is torsion-free, and adding a symmetric correction
    keeps it so; unitarity pins the correction, which ``koszul_correction``
    gives in closed form.
    """
    return base_connection().shifted(koszul_correction(g))


def christoffel(conn: Connection) -> dict[tuple[int, int, int], AlgElem]:
    """All 27 coefficients: conn(e_i) = sum e_j ⊗ e_k * gamma[(i, j, k)]."""
    return {(i, j, k): conn.vals[i - 1].entry(j, k)
            for i in _INDICES for j in _INDICES for k in _INDICES}


def koszul_correction(g: Metric) -> SymTensorMap:
    """The symmetric correction L that makes the base connection unitary.

    Unitarity of base + L reads sum_m g(k,m) L^j(m,n) + g(j,m) L^k(m,n) =
    T(j,k,n) for T = -compatibility_map(g, base); the metric differential
    vanishes for constant entries.  Lowering n with g, T'(j,k,n) =
    sum_m T(j,k,m) g(m,n), and Koszul's trick solves for g L^j g:

        Z_j(k,n) = (T'(j,k,n) + T'(j,n,k) - T'(k,n,j)) / 2,
        L^j = g⁻¹ Z_j g⁻¹.

    Z_j is symmetric in (k, n), so each L^j is symmetric by construction.
    """
    r = _numbers(g.rows)
    det = g.det()
    inv = _inverse(r, det.re if det.is_real else det)
    # T = -C for the base table; the sign rides on the factor 1/2
    c = _compatibility(_BASE_TABLE, r)
    lowered = [_matmul(c[j], r) for j in range(3)]
    half = Fraction(-1, 2)
    values = []
    for j in range(3):
        z = [[(lowered[j][k][n] + lowered[j][n][k] - lowered[k][n][j]) * half
              for n in range(3)] for k in range(3)]
        corr = _matmul(inv, _matmul(z, inv))
        values.append(TensorElem.from_entries(2, {
            (i + 1, m + 1): GScalar.of(corr[i][m])
            for i in range(3) for m in range(3)}))
    return SymTensorMap(tuple(values))
