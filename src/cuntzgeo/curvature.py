"""Curvature of a connection: curvature tensor, Ricci contraction, scalar.

The curvature is index arithmetic on the scalar Christoffel table
Gamma_i(a, b), the coefficient of e_a ⊗ e_b in conn(e_i).  On each basis
one-form e_k it is the rank-3 tensor with entries

    R_k(a, b, c) = 1/2 sum_i [Gamma_k(i, c) Gamma_i(a, b) - Gamma_k(i, b) Gamma_i(a, c)]
                 + 1/2 sum_j Gamma_k(a, j) eps(j, b, c),

where eps is the Levi-Civita symbol, read off the calculus as twice
``antisym_lift(d(e_j))``.  The first sum differentiates the first leg of
conn(e_k) and antisymmetrizes the last two positions; the second
differentiates the second leg through the lifted basis differential.

The curvature operator tacks the dual basis index on and swaps the middle
one-form legs; contracting the dual index against the third leg yields the
Ricci tensor, and pairing Ricci with the metric g (not g⁻¹) gives the scalar
curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElem
from .calculus import BASIS_DIFFERENTIALS, TensorElem, antisym_lift
from .geometry import (
    Connection,
    Metric,
    _christoffel_table,
    _matmul,
    _numbers,
    levi_civita,
)

_INDICES = (1, 2, 3)

ThetaMap = dict[tuple[int, int, int, int], AlgElem]

# eps_rows[3b + c][j] = eps(j, b, c), 0-based: twice the (b, c) entry of
# antisym_lift(d(e_j))
_EPS_ROWS = _numbers(
    [[2 * antisym_lift(w).entry(b, c).as_scalar() for w in BASIS_DIFFERENTIALS]
     for b in _INDICES for c in _INDICES])


def curvature(conn: Connection) -> tuple[TensorElem, TensorElem, TensorElem]:
    """Curvature three-tensor on each basis one-form.

    Raises ValueError when a Christoffel symbol is not a scalar.
    """
    gamma = _christoffel_table(conn)
    stacked = [[gi[a][b] for gi in gamma] for a in range(3) for b in range(3)]
    half = Fraction(1, 2)
    out = []
    for gk in gamma:
        # q[3a + b][c] = sum_i Gamma_i(a, b) Gamma_k(i, c)
        q = _matmul(stacked, gk)
        # e[3b + c][a] = sum_j eps(j, b, c) Gamma_k(a, j)
        e = _matmul(_EPS_ROWS, list(zip(*gk)))
        out.append(TensorElem.from_entries(3, {
            (a + 1, b + 1, c + 1):
                (q[3 * a + b][c] - q[3 * a + c][b] + e[3 * b + c][a]) * half
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
    acc: dict[tuple[int, int], AlgElem] = {}
    for (a, b, c, k), coeff in theta.items():
        if c != k:
            continue
        acc[(a, b)] = acc.get((a, b), AlgElem.zero()) + coeff
    return TensorElem.from_entries(2, acc)


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
