"""Pseudo-Riemannian geometry of the rank-3 one-form module.

A metric is a symmetric invertible 3x3 matrix of exact scalars, read as the
bilinear pairing ``g(e_i ⊗ e_j) = g[i][j]`` extended right-linearly.  A
connection assigns each basis one-form a rank-2 tensor and extends to the
whole module by the right Leibniz rule.  The Koszul correction L below has
the same shape, so ``Connection`` and ``SymTensorMap`` share one base that
holds exactly three rank-2 tensors; ``SymTensorMap`` adds only its symmetry
rule.

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
in closed form for every invertible symmetric metric: Koszul's formula, with
g⁻¹ from the adjugate.  No linear system is solved.  The index arithmetic
is integer arithmetic: a metric or Christoffel table, real or complex,
enters once as Gaussian integers, (re, im) int pairs equal to D times the
table for D the lcm of its scalars' denominators d (a scalar is the reduced
triple (a, b, d), see ``cuntzgeo.scalars``).  One reader, ``_table``, turns
the c*1 entries of rank-2 tensors (a connection, the curvature's eps
symbol, a Ricci tensor) into such a table and raises ValueError on any
other coefficient; ``_gaussian`` reads the metric's scalars.  Each output
entry is a Gaussian integer over a positive int, reduced once by
``scalars._norm`` and wrapped once as a c*1 coefficient
(``TensorElem._of_scalars`` for a tensor).
``levi_civita`` adds the base table to L's numerators, so it builds the
connection with no tensor sum.  Each independent entry is one
Gaussian dot product, and its mirror image shares the result: the
compatibility pairing is symmetric in (i, j), and so are Koszul's W_j and
L^j below, so each is computed for i <= j only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .algebra import AlgElem, _index
from .calculus import (
    BASIS_DIFFERENTIALS,
    OneForm,
    TensorElem,
    TwoForm,
    _det3,
    _is_3x3,
    _unit_multiple,
    derive,
    wedge,
)
# Not called here.  Kept as a module attribute because bench/spans.py wraps
# cuntzgeo.geometry.solve_exact when it traces a run.
from .linsolve import solve_exact  # noqa: F401
from .scalars import GScalar, ZERO, _norm


class MetricError(ValueError):
    """The metric input violates shape, exactness, symmetry or invertibility."""


_INDICES = (1, 2, 3)


def _check_shape(rows: object) -> None:
    """Raise MetricError unless rows is three lists or tuples of three, not
    scalars (``calculus._is_3x3``)."""
    if not _is_3x3(rows):
        raise MetricError("metric must be a 3x3 array")


@dataclass(frozen=True)
class Metric:
    """Symmetric invertible bilinear pairing on the one-form module."""

    rows: tuple[tuple[GScalar, GScalar, GScalar], ...]

    def __post_init__(self) -> None:
        _check_shape(self.rows)
        bad = [x for row in self.rows for x in row if not isinstance(x, GScalar)]
        if bad:
            raise MetricError(f"metric entry {bad[0]!r} is not a GScalar; "
                              "Metric.from_rows converts ints and Fractions")
        for i in range(3):
            for j in range(i + 1, 3):
                if self.rows[i][j] != self.rows[j][i]:
                    raise MetricError("metric not symmetric")
        if not self.det():
            raise MetricError("metric not invertible (determinant is zero)")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[GScalar | int]]) -> "Metric":
        _check_shape(rows)
        return Metric(tuple(tuple(GScalar.of(x) for x in row) for row in rows))

    @staticmethod
    def identity() -> "Metric":
        return Metric.diagonal(1, 1, 1)

    @staticmethod
    def diagonal(a: GScalar | int, b: GScalar | int, c: GScalar | int) -> "Metric":
        z = ZERO
        return Metric.from_rows(((a, z, z), (z, b, z), (z, z, c)))

    def entry(self, i: int, j: int) -> GScalar:
        return self.rows[_index(i) - 1][_index(j) - 1]

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
    """Build a metric from a JSON file path or a 3x3 array of lists or tuples.

    Entries are expression strings in the scalar grammar or exact scalars
    by the rule of ``cuntzgeo.scalars``, as ``Metric.from_rows`` takes them;
    floats and bools are rejected (the engine is exact).
    """
    from .exprs import ParseError, parse_scalar  # deferred: exprs imports calculus

    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise MetricError(f"cannot read metric file: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MetricError(f"metric file is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past the int-string digit limit
            raise MetricError(
                f"metric file holds an integer too long to decode: {exc}") from exc
        except RecursionError as exc:
            raise MetricError("metric file nests too deeply to decode") from exc
    else:
        data = source
    _check_shape(data)
    rows = []
    for row in data:
        out_row = []
        for cell in row:
            if isinstance(cell, str):
                try:
                    out_row.append(parse_scalar(cell))
                except ParseError as exc:
                    raise MetricError(f"bad metric entry {cell!r}: {exc}") from exc
            elif (x := GScalar._coerce(cell)) is not None:
                out_row.append(x)
            elif isinstance(cell, float):
                raise MetricError(
                    f"metric entry {cell!r} is a float; use an exact string like \"1/2\"")
            else:
                raise MetricError(f"metric entry is not a scalar: {cell!r}")
        rows.append(tuple(out_row))
    return Metric(tuple(rows))


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Values:
    """A rank-2 tensor value on each basis one-form e1, e2, e3: the shape of
    a connection and of the Koszul correction L alike."""

    vals: tuple[TensorElem, TensorElem, TensorElem]

    def __post_init__(self) -> None:
        if len(self.vals) != 3 or any(
                not isinstance(v, TensorElem) or v.rank != 2 for v in self.vals):
            raise ValueError("values must be three rank-2 tensors")

    def value(self, i: int) -> TensorElem:
        return self.vals[_index(i) - 1]


class Connection(_Values):
    """A right connection, determined by its rank-2 values on e1, e2, e3."""

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


class SymTensorMap(_Values):
    """A symmetric-rank-2-tensor value on each basis one-form.

    A value is symmetric when each entry ``equals`` its mirror, a missing
    mirror reading as 0: that is ``sym_project(v).equals(v)``, as
    (v + flip v)/2 - v = (flip v - v)/2.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        zero = AlgElem.zero()
        for v in self.vals:
            mirror = v.entry_map()
            if not all(c.equals(mirror.get((b, a), zero)) for (a, b), c in v.entries):
                raise ValueError("values must be symmetric tensors")


# ---------------------------------------------------------------------------
# Christoffel tables and the compatibility pairing
# ---------------------------------------------------------------------------

# Index arithmetic on nested lists of Gaussian integers, 0-based.

_CYCLE = ((1, 2), (2, 0), (0, 1))  # (i + 1, i + 2) mod 3 for i = 0, 1, 2


def _gaussian(xs: Sequence[GScalar]) -> tuple[list, int]:
    """D times the scalars as (re, im) int pairs, in rows of three, and D."""
    d = math.lcm(*(q for _, _, q in xs))
    pairs = [(a * (d // q), b * (d // q)) for a, b, q in xs]
    return [pairs[k:k + 3] for k in range(0, len(pairs), 3)], d


def _dot(xs, ys) -> tuple[int, int]:
    """sum_m xs[m] * ys[m] over Gaussian integers."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _table(tensors: Sequence[TensorElem], what: str) -> tuple[list, int]:
    """T[t][a][b], D times the scalar c of the c*1 entry (a + 1, b + 1) of
    the rank-2 tensors[t] as a Gaussian integer, and D.

    Raises ValueError, naming the entry as (t + 1, a + 1, b + 1) or, for one
    tensor, (a + 1, b + 1), when a coefficient is not a scalar multiple of
    1: the index formulas hold for scalar entries only.
    """
    flat = [ZERO] * (9 * len(tensors))
    for t, tensor in enumerate(tensors):
        for (a, b), c in tensor.entries:
            flat[9 * t + 3 * a + b - 4] = s = c.as_scalar()
            if s is None:
                key = (a, b) if len(tensors) == 1 else (t + 1, a, b)
                raise ValueError(f"{what} {key} is not a scalar")
    rows, d = _gaussian(flat)
    return [rows[k:k + 3] for k in range(0, len(rows), 3)], d


# D Gamma for the base connection, whose D is 1
_BASE_TABLE = _table(base_connection().vals, "connection coefficient")[0]


def _symmetric(entry) -> list:
    """The symmetric 3x3 array of entry(i, j), each computed once, for i <= j."""
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            out[i][j] = out[j][i] = entry(i, j)
    return out


def _compatibility(gamma: list, r: list) -> list:
    """C[i][j][b] = sum_a gamma[i][a][b] g(a,j) + gamma[j][a][b] g(a,i): the
    e_b component of the compatibility pairing at (e_i, e_j) for the
    Christoffel table gamma and the metric rows r, scales multiplied.

    It is conn(e_i) ⊗ e_j + conn(e_j) ⊗ e_i with legs 2 and 3 swapped and the
    first two legs paired with the metric, so C[i][j] = C[j][i].
    """
    # cols[i][b][a] = gamma[i][a][b]; g is symmetric, so its column j is r[j]
    cols = [[list(col) for col in zip(*gi)] for gi in gamma]
    return _symmetric(lambda i, j: [_dot(cols[i][b] + cols[j][b], r[j] + r[i])
                                    for b in range(3)])


def compatibility_map(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """How the connection differentiates the metric: the one-form
    ``[i - 1][j - 1]`` is the pairing on the basis pair (e_i, e_j), which is
    symmetric in (i, j)."""
    gamma, d_gamma = _table(conn.vals, "connection coefficient")
    r, d_g = _gaussian([x for row in g.rows for x in row])
    q = d_gamma * d_g
    c = _compatibility(gamma, r)
    return tuple(map(tuple, _symmetric(
        lambda i, j: OneForm(tuple(_unit_multiple(_norm(*x, q)) for x in c[i][j])))))


def unitarity_residual(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """Compatibility minus the differential of the metric on every basis
    pair.  The metric entries are constants, so dg = 0 and the residual is
    ``compatibility_map(g, conn)`` itself; it vanishes exactly when the
    connection is unitary (metric-compatible)."""
    return compatibility_map(g, conn)


# ---------------------------------------------------------------------------
# the Levi-Civita connection in closed form
# ---------------------------------------------------------------------------

def levi_civita(g: Metric) -> Connection:
    """The unique torsion-free unitary connection for the metric.

    The base connection is torsion-free, and adding a symmetric correction
    keeps it so; unitarity pins the correction L, which ``_koszul`` gives in
    closed form.  Gamma_j = base_j + L^j is built as one integer table, each
    entry reduced once, and equals
    ``base_connection().shifted(koszul_correction(g))``.
    """
    return Connection(_koszul(g, _BASE_TABLE))


def christoffel(conn: Connection) -> dict[tuple[int, int, int], AlgElem]:
    """All 27 coefficients: conn(e_i) = sum e_j ⊗ e_k * gamma[(i, j, k)]."""
    zero = AlgElem.zero()
    maps = [v.entry_map() for v in conn.vals]
    return {(i, j, k): maps[i - 1].get((j, k), zero)
            for i in _INDICES for j in _INDICES for k in _INDICES}


def koszul_correction(g: Metric) -> SymTensorMap:
    """The symmetric correction L that makes the base connection unitary,
    by ``_koszul``'s closed form (the zero table plus L)."""
    return SymTensorMap(_koszul(g, _ZERO_TABLE))


# a Christoffel table of zeros, as Gaussian integers
_ZERO_TABLE = ((((0, 0),) * 3,) * 3,) * 3


def _koszul(g: Metric, table: Sequence) -> tuple[TensorElem, TensorElem, TensorElem]:
    """table_j + L^j for j = 1, 2, 3: a Christoffel table of Gaussian
    integers (its D is 1) plus the symmetric correction L that makes the
    base connection unitary.

    Unitarity of base + L reads sum_m g(k,m) L^j(m,n) + g(j,m) L^k(m,n) =
    T(j,k,n) for T = -compatibility_map(g, base); the metric differential
    vanishes for constant entries.  Lowering n with g, T'(j,k,n) =
    sum_m T(j,k,m) g(m,n), and Koszul's trick solves for g L^j g:

        Z_j(k,n) = (T'(j,k,n) + T'(j,n,k) - T'(k,n,j)) / 2,
        L^j = g⁻¹ Z_j g⁻¹.

    Z_j is symmetric in (k, n), so each L^j is symmetric by construction.
    With the Gaussian integers G = D g and W_j = -2 D² Z_j, g⁻¹ is
    D adj(G) / det(G) and D cancels: L^j = adj(G) W_j adj(G) / (-2 det(G)²).
    Times conj(det(G))², the divisor is the positive int q = 2 |det(G)|⁴,
    so L^j = X_j / q for a symmetric Gaussian-integer array X_j, and an
    entry of table_j + L^j is (X_j + q table_j) / q, reduced once.  Each
    X_j entry with i <= m is one dot product, reduced at once into the entry
    and its mirror, which share it wherever table_j is symmetric too: the
    numerators are the largest integers of the chain, so none is kept.
    """
    r, _ = _gaussian([x for row in g.rows for x in row])
    neg = [[(-x, -y) for x, y in row] for row in r]
    c = _compatibility(_BASE_TABLE, r)  # D times -T
    # adj(G)[i][k] = G(i+1, k+1) G(i+2, k+2) - G(i+1, k+2) G(i+2, k+1), mod 3;
    # G, adj(G), W_j and L^j are symmetric, so a row is also a column
    adj = [[_dot((r[i1][k1], r[i1][k2]), (r[i2][k2], neg[i2][k1]))
            for k1, k2 in _CYCLE] for i1, i2 in _CYCLE]
    x, y = _dot(r[0], adj[0])  # det(G)
    f = ((y * y - x * x, 2 * x * y),)  # -conj(det(G))², over 2 |det(G)|⁴
    q = 2 * (x * x + y * y) ** 2
    values = []
    for j, b in enumerate(table):
        # W_j(k,n) = sum_m C(j,k,m) G(m,n) + C(j,n,m) G(m,k) - C(k,n,m) G(m,j)
        w = _symmetric(lambda k, n: _dot(c[j][k] + c[j][n] + c[k][n],
                                         r[n] + r[k] + neg[j]))
        aw = [[_dot(row, col) for col in w] for row in adj]
        entries = {}
        for i in range(3):
            for m in range(i, 3):
                u, v = _dot((_dot(aw[i], adj[m]),), f)  # q L^j(i, m) = q L^j(m, i)
                (bx, by), mirror = b[i][m], b[m][i]
                entries[i + 1, m + 1] = s = _norm(u + q * bx, v + q * by, q)
                entries[m + 1, i + 1] = s if mirror == (bx, by) else _norm(
                    u + q * mirror[0], v + q * mirror[1], q)
        values.append(TensorElem._of_scalars(2, entries))
    return tuple(values)
