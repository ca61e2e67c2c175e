"""Pseudo-Riemannian geometry of the rank-3 one-form module.

A metric is a symmetric invertible 3x3 matrix of exact scalars, read as the
bilinear pairing ``g(e_i ⊗ e_j) = g[i][j]`` extended right-linearly.  A
connection is determined by its rank-2 tensor on each basis one-form, and
extends to the whole module by the right Leibniz rule; only those three
values are stored or computed here.  The Koszul correction L below has
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
metric, which is zero for constant entries, so ``unitarity_residual`` is
``compatibility_map`` itself, one function under two names.

``levi_civita(g)`` adds to the canonical torsion-free connection the unique
symmetric correction L that makes it unitary.  ``koszul_correction`` gives L
in closed form for every invertible symmetric metric: Koszul's formula, with
g⁻¹ as the adjugate over the determinant.  No linear system is solved.
The index arithmetic is integer arithmetic: a metric or Christoffel table,
real or complex, enters once as Gaussian integers, (re, im) int pairs equal
to D times the table for D the lcm of its scalars' denominators d (a scalar
is the reduced triple (a, b, d), see ``cuntzgeo.scalars``).  One reader,
``_table``, turns the c*1 entries of rank-2 tensors (a connection, the
curvature's eps symbol, a Ricci tensor) into such a table and raises
ValueError on any other coefficient; ``_gaussian`` reads a list of scalars,
such as the metric's entries.  Each output entry is a Gaussian integer over
a positive int, reduced once by ``scalars._norm`` and wrapped once, by
``AlgElem.scalar`` or, in a tensor, by ``TensorElem._of_scalars``, which
sets the tensor's record with none of the constructor's checks: this
module's loops make each index, and each scalar is reduced.

Koszul's correction is linear in g⁻¹: every term of Koszul's formula for
the base connection holds a row of g, which cancels one of the two
inverses, so each entry of L is a 4-term sum of products g⁻¹(·,·) g(·,j)
plus the base table.  For G = D g, g⁻¹ = D adj(G) / det(G), so each such
product is adj(G)(·,·) G(·,j) / det(G) and D cancels: ``_koszul`` puts
every entry of L over 2 |det(G)|², with no inverse formed or reduced, and
reduces it once.  ``levi_civita`` adds the base table to each reduced
entry of L, which keeps it reduced, so it builds the connection with no
tensor sum and no second gcd.  Each independent entry is one Gaussian dot
product, and its mirror image shares the result: the compatibility
pairing is symmetric in (i, j), and so is L^j, so each is computed for
i <= j only.
"""

from __future__ import annotations

__all__ = [
    "Connection",
    "Metric",
    "MetricError",
    "SymTensorMap",
    "base_connection",
    "christoffel",
    "compatibility_map",
    "koszul_correction",
    "levi_civita",
    "load_metric",
    "torsion",
    "unitarity_residual",
]

import math
from pathlib import Path
from typing import Sequence

from .algebra import _INDICES, AlgElem, _index, _Record
from .calculus import (
    BASIS_DIFFERENTIALS,
    OneForm,
    TensorElem,
    TwoForm,
    _det3,
    _is_3x3,
    wedge,
)
from .exprs import ParseError, parse_scalar
from .scalars import GScalar, ZERO, _new, _norm

# bench/spans.py wraps this name when it traces; the benchmark change of
# ROADMAP item 3 deletes the wrap, and this name goes with it.
solve_exact = None


class MetricError(ValueError):
    """The metric input violates shape, exactness, symmetry or invertibility."""


def _entry(cell: object) -> GScalar:
    """One metric cell as a scalar: a string in the scalar grammar
    (``parse_scalar``) or an exact scalar by the rule of ``cuntzgeo.scalars``;
    anything else, a float or a bool among them, is a MetricError."""
    if isinstance(cell, str):
        try:
            return parse_scalar(cell)
        except ParseError as exc:
            raise MetricError(f"bad metric entry {cell!r}: {exc}") from exc
    if (x := GScalar._coerce(cell)) is not None:
        return x
    if isinstance(cell, float):
        raise MetricError(
            f"metric entry {cell!r} is a float; use an exact string like \"1/2\"")
    raise MetricError(f"metric entry is not a scalar: {cell!r}")


class Metric(_Record):
    """Symmetric invertible bilinear pairing on the one-form module.

    ``Metric(rows)`` is the one door for a metric: rows must be three lists
    or tuples of three (``calculus._is_3x3``), and each cell is read by
    ``_entry``, so it takes strings in the scalar grammar, ints, Fractions
    and GScalars, and rejects floats and bools.  Then the matrix must be
    symmetric and invertible.  Every check raises MetricError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[object]]) -> None:
        if not _is_3x3(rows):
            raise MetricError("metric must be a 3x3 array")
        super().__init__(tuple(tuple(map(_entry, row)) for row in rows))
        for i in range(3):
            for j in range(i + 1, 3):
                if self.rows[i][j] != self.rows[j][i]:
                    raise MetricError("metric not symmetric")
        if not self.det():
            raise MetricError("metric not invertible (determinant is zero)")

    @staticmethod
    def identity() -> "Metric":
        return Metric.diagonal(1, 1, 1)

    @staticmethod
    def diagonal(a: GScalar | int, b: GScalar | int, c: GScalar | int) -> "Metric":
        z = ZERO
        return Metric(((a, z, z), (z, b, z), (z, z, c)))

    def entry(self, i: int, j: int) -> GScalar:
        return self.rows[_index(i) - 1][_index(j) - 1]

    def det(self) -> GScalar:
        return _det3(self.rows)

    def scale(self, s: GScalar | int) -> "Metric":
        s = GScalar.of(s)
        return Metric(tuple(tuple(s * x for x in row) for row in self.rows))


def load_metric(source: "str | Path | Sequence[Sequence[object]]") -> Metric:
    """Build a metric from a JSON file path or a 3x3 array of lists or tuples.

    A path is read and decoded here; the array is ``Metric(data)``, which
    reads every entry by the one rule of ``Metric``: expression strings in
    the scalar grammar or exact scalars, never floats or bools (the engine
    is exact).
    """
    if isinstance(source, (str, Path)):
        import json  # on first use: only a metric file needs it

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
    return Metric(data)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

class _Values(_Record):
    """A rank-2 tensor value on each basis one-form e1, e2, e3: the shape of
    a connection and of the Koszul correction L alike."""

    __slots__ = ("vals",)

    def __init__(self, vals: Sequence[TensorElem]) -> None:
        vals = tuple(vals)
        if len(vals) != 3 or any(not isinstance(v, TensorElem) or v.rank != 2 for v in vals):
            raise ValueError("values must be three rank-2 tensors")
        super().__init__(vals)

    def value(self, i: int) -> TensorElem:
        return self.vals[_index(i) - 1]


class Connection(_Values):
    """A right connection, determined by its rank-2 values on e1, e2, e3.

    ``shifted`` adds a correction term by term with tensor sums: the
    reference formula that ``levi_civita``'s integer table is tested
    against."""

    __slots__ = ()

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

    __slots__ = ()

    def __init__(self, vals: Sequence[TensorElem]) -> None:
        super().__init__(vals)
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


def _gaussian(xs: Sequence[tuple[int, int, int]]) -> tuple[list, int]:
    """D times the reduced triples (a, b, d), scalars or not, as (re, im)
    int pairs, in rows of three, and D."""
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
    1: the index formulas hold for scalar entries only.  Every index is a
    pair in 1..3 and no index repeats, which the ``TensorElem`` constructor
    checks, so each entry has its own place in the flat table.
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


def compatibility_map(g: Metric, conn: Connection) -> tuple[tuple[OneForm, ...], ...]:
    """How the connection differentiates the metric: the one-form
    ``[i - 1][j - 1]`` is the pairing on the basis pair (e_i, e_j).

    Its e_b component is sum_a Gamma_i(a, b) g(a, j) + Gamma_j(a, b) g(a, i):
    conn(e_i) ⊗ e_j + conn(e_j) ⊗ e_i with legs 2 and 3 swapped and the first
    two legs paired with the metric.  That is symmetric in (i, j), so each
    one-form with i <= j is computed and wrapped once, each component one
    Gaussian dot product over the product of the two tables' D.
    """
    gamma, d_gamma = _table(conn.vals, "connection coefficient")
    r, d_g = _gaussian([x for row in g.rows for x in row])
    q = d_gamma * d_g
    # cols[i][b][a] = Gamma_i(a, b); g is symmetric, so its column j is r[j]
    cols = [[list(col) for col in zip(*gi)] for gi in gamma]
    return tuple(map(tuple, _symmetric(lambda i, j: OneForm(tuple(
        AlgElem.scalar(_norm(*_dot(cols[i][b] + cols[j][b], r[j] + r[i]), q))
        for b in range(3))))))


# The residual is compatibility minus dg on every basis pair, and dg = 0 for
# constant metric entries; it vanishes exactly when the connection is unitary.
unitarity_residual = compatibility_map


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

    Indices are 0-based and taken mod 3.  Unitarity of base + L reads
    sum_m g(k,m) L^j(m,n) + g(j,m) L^k(m,n) = T(j,k,n) for
    T = -compatibility_map(g, base); the metric differential vanishes for
    constant entries.  Lowering n with g, T'(j,k,n) = sum_m T(j,k,m) g(m,n),
    and Koszul's trick solves for g L^j g:

        Z_j(k,n) = (T'(j,k,n) + T'(j,n,k) - T'(k,n,j)) / 2,
        L^j = g⁻¹ Z_j g⁻¹.

    The base table B_j is 1 at (j+2, j+1) and 0 elsewhere, so
    T'(j,k,n) = -(g(j+2,k) g(j+1,n) + g(k+2,j) g(k+1,n)): every term of Z_j
    holds a row of g, which cancels one g⁻¹ of g⁻¹ Z_j g⁻¹, as
    sum_k g⁻¹(i,k) g(a,k) = δ(i,a).  So L is linear in h = g⁻¹:

        2 L^j(i,p) = -(B_j(i,p) + B_j(p,i))
                     + h(i,p+1) g(p+2,j) + h(p,i+1) g(i+2,j)
                     - h(i,p+2) g(p+1,j) - h(p,i+2) g(i+1,j),

    symmetric in (i, p).  With the Gaussian integers G = D g, adj(g) =
    adj(G) / D² and det(g) = det(G) / D³, so h = D adj(G) / det(G), and
    every product h(·,·) g(·,j) = adj(G)(·,·) G(·,j) / det(G): D cancels.
    So 2 det(G) L^j(i,p) is one 4-term dot product of entries of adj(G)
    and G, minus det(G) (B_j(i,p) + B_j(p,i)), and multiplying by
    conj(det(G)) puts L^j(i,p) over the positive int 2 |det(G)|².  Each
    entry with i <= p is reduced once to (u, v, w); the Christoffel entry is
    then (u + w bx, v + w by, w) for the table entry (bx, by), and its
    mirror the same with the mirror's table entry.  Both are reduced
    already, since gcd(u + w bx, v + w by, w) = gcd(u, v, w) = 1.
    """
    r, _ = _gaussian([x for row in g.rows for x in row])
    neg = [[(-x, -y) for x, y in row] for row in r]
    # adj(G)[i][k] = G(i+1, k+1) G(i+2, k+2) - G(i+1, k+2) G(i+2, k+1);
    # G and adj(G) are symmetric, so a row is also a column
    adj = [[_dot((r[i1][k1], r[i1][k2]), (r[i2][k2], neg[i2][k1]))
            for k1, k2 in _CYCLE] for i1, i2 in _CYCLE]
    x, y = _dot(r[0], adj[0])  # det(G)
    q = 2 * (x * x + y * y)
    values = []
    for j, b in enumerate(table):
        base, gj, nj = _BASE_TABLE[j], r[j], neg[j]  # G(m, j) = r[j][m]
        entries = {}
        for i, (i1, i2) in enumerate(_CYCLE):
            for p in range(i, 3):
                p1, p2 = _CYCLE[p]
                re, im = _dot((adj[i][p1], adj[p][i1], adj[i][p2], adj[p][i2]),
                              (gj[p2], gj[i2], nj[p1], nj[i1]))
                k = base[i][p][0] + base[p][i][0]  # B_j(i, p) + B_j(p, i)
                re, im = re - k * x, im - k * y
                # L^j(i, p) = L^j(p, i), times conj(det(G)) over 2 |det(G)|²
                u, v, w = _norm(re * x + im * y, im * x - re * y, q)
                for s, t in ((i, p), (p, i)):
                    bx, by = b[s][t]
                    entries[s + 1, t + 1] = _new(GScalar, (u + w * bx, v + w * by, w))
        values.append(TensorElem._of_scalars(2, entries))
    return tuple(values)
