"""Curvature of a connection: curvature tensor, Ricci contraction, scalar.

The curvature is index arithmetic on the scalar Christoffel table
Gamma_i(a, b), the coefficient of e_a ⊗ e_b in conn(e_i).  On each basis
one-form e_k it is the rank-3 tensor with entries

    R_k(a, b, c) = 1/2 sum_i [Gamma_k(i, c) Gamma_i(a, b) - Gamma_k(i, b) Gamma_i(a, c)]
                 + 1/2 sum_j Gamma_k(a, j) eps(j, b, c),

where eps is the Levi-Civita symbol, read off the calculus as twice
``antisym_lift(d(e_j))``.  The first sum differentiates the first leg of
conn(e_k) and antisymmetrizes the last two positions; the second
differentiates the second leg through the lifted basis differential.  On
the Gaussian-integer table D Gamma (see ``cuntzgeo.geometry``), each entry
is one integer sum over i, i and j (with -Gamma_k and D eps), over 2 D².

The curvature operator tacks the dual basis index on and swaps the middle
one-form legs; contracting the dual index against the third leg yields the
Ricci tensor, and pairing Ricci with the metric g (not g⁻¹) gives the scalar
curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgElem
from .calculus import BASIS_DIFFERENTIALS, TensorElem, antisym_lift
from .geometry import (
    Connection,
    Metric,
    _christoffel_table,
    _dot,
    levi_civita,
)
from .scalars import _norm

_INDICES = (1, 2, 3)

ThetaMap = dict[tuple[int, int, int, int], AlgElem]

# _EPS[j][b][c] = eps(j, b, c) as a Gaussian integer (its D is 1), 0-based:
# twice the (b, c) entry of antisym_lift(d(e_j)).  eps is cyclic, so
# _EPS[b][c] lists eps(j, b, c) over j.
_EPS = _christoffel_table([antisym_lift(w) * 2 for w in BASIS_DIFFERENTIALS])[0]


def curvature(conn: Connection) -> tuple[TensorElem, TensorElem, TensorElem]:
    """Curvature three-tensor on each basis one-form.

    Raises ValueError when a Christoffel symbol is not a scalar.
    """
    gamma, d = _christoffel_table(conn.vals)
    # stacked[a][b][i] = Gamma_i(a, b), d_eps[b][c][j] = D eps(j, b, c)
    stacked = [[list(s) for s in zip(*rows)] for rows in zip(*gamma)]
    d_eps = [[[(d * x, d * y) for x, y in v] for v in row] for row in _EPS]
    out = []
    for gk in gamma:
        cols = [list(col) for col in zip(*gk)]  # cols[c][i] = Gamma_k(i, c)
        neg = [[(-x, -y) for x, y in col] for col in cols]
        out.append(TensorElem.from_entries(3, {
            (a + 1, b + 1, c + 1): _norm(*_dot(stacked[a][b] + stacked[a][c] + gk[a],
                                              cols[c] + neg[b] + d_eps[b][c]), 2 * d * d)
            for a in range(3) for b in range(3) for c in range(3)}))
    return tuple(out)


def curvature_operator(
    curv: tuple[TensorElem, TensorElem, TensorElem],
) -> ThetaMap:
    """Attach the dual index and swap the middle legs: entry (a, c, b, k)
    is the (a, b, c) coefficient of curv[k].  The swap is a bijection, so
    the nonzero entries carry over one to one."""
    return {(a, c, b, k): coeff
            for k in _INDICES for (a, b, c), coeff in curv[k - 1].entries}


def ricci(theta: ThetaMap) -> TensorElem:
    """Contract the dual index against the third one-form leg.

    Moving e_k^* past e_c and evaluating kills every entry with c != k and
    leaves the first two legs.
    """
    return TensorElem._make(
        2, (((a, b), coeff) for (a, b, c, k), coeff in theta.items() if c == k))


def scalar_curvature(g: Metric, ric: TensorElem) -> AlgElem:
    """Pair Ricci with the metric: sum of g(a, b) times the (a, b) entry."""
    if ric.rank != 2:
        raise ValueError("scalar_curvature expects a rank-2 tensor")
    return g.apply(ric)


@dataclass(frozen=True)
class CurvatureReport:
    """Everything the curvature pipeline produces for one metric."""

    metric: Metric
    connection: Connection
    curv: tuple[TensorElem, TensorElem, TensorElem]
    theta: ThetaMap
    ric: TensorElem
    scalar: AlgElem


def curvature_report(g: Metric) -> CurvatureReport:
    conn = levi_civita(g)
    curv = curvature(conn)
    theta = curvature_operator(curv)
    ric = ricci(theta)
    scal = scalar_curvature(g, ric)
    return CurvatureReport(g, conn, curv, theta, ric, scal)
