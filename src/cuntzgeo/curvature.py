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
the Gaussian-integer table D Gamma, which ``geometry._table`` reads from the
connection as it reads eps and a Ricci tensor, each entry
is one integer sum over i, i and j (with -Gamma_k and D eps), over 2 D².
Both sums change sign under b <-> c, for any scalar table, so
R_k(a, c, b) = -R_k(a, b, c) and R_k(a, b, b) = 0: the entries with b < c
are computed and reduced, and each mirror is that reduced triple with both
parts negated, which is reduced already.

The curvature operator tacks the dual basis index on and swaps the middle
one-form legs; contracting the dual index against the third leg yields the
Ricci tensor, and pairing Ricci with the metric g (not g⁻¹) gives the scalar
curvature.  Both are integer sums too: a Ricci entry is one numerator sum
over the lcm of its summands' denominators, and Scal one Gaussian dot
product of the two tables over the product of their D, each reduced once.
Like the curvature, they raise ValueError on a coefficient that is not a
scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _INDICES, AlgElem
from .calculus import BASIS_DIFFERENTIALS, TensorElem, _check_indices, antisym_lift
from .geometry import Connection, Metric, _dot, _gaussian, _table, levi_civita
from .scalars import GScalar, _new, _norm

ThetaMap = dict[tuple[int, int, int, int], AlgElem]

# _EPS[j][b][c] = eps(j, b, c) as a Gaussian integer (its D is 1), 0-based:
# twice the (b, c) entry of antisym_lift(d(e_j)).  eps is cyclic, so
# _EPS[b][c] lists eps(j, b, c) over j.
_EPS = _table([antisym_lift(w) * 2 for w in BASIS_DIFFERENTIALS], "eps entry")[0]

# R_k(a, b, c) = -R_k(a, c, b), so the entries with b < c determine the rest
_PAIRS = ((0, 1), (0, 2), (1, 2))


def curvature(conn: Connection) -> tuple[TensorElem, TensorElem, TensorElem]:
    """Curvature three-tensor on each basis one-form.

    Raises ValueError when a Christoffel symbol is not a scalar.
    """
    gamma, d = _table(conn.vals, "connection coefficient")
    q = 2 * d * d
    # stacked[a][b][i] = Gamma_i(a, b), d_eps[b][c][j] = D eps(j, b, c)
    stacked = [[list(s) for s in zip(*rows)] for rows in zip(*gamma)]
    d_eps = [[[(d * x, d * y) for x, y in v] for v in row] for row in _EPS]
    out = []
    for gk in gamma:
        cols = [list(col) for col in zip(*gk)]  # cols[c][i] = Gamma_k(i, c)
        neg = [[(-x, -y) for x, y in col] for col in cols]
        entries = {}
        for a in range(3):
            for b, c in _PAIRS:
                x, y = _dot(stacked[a][b] + stacked[a][c] + gk[a],
                            cols[c] + neg[b] + d_eps[b][c])
                entries[a + 1, b + 1, c + 1] = u, v, w = _norm(x, y, q)
                entries[a + 1, c + 1, b + 1] = _new(GScalar, (-u, -v, w))
        out.append(TensorElem._of_scalars(3, entries))
    return tuple(out)


def curvature_operator(
    curv: tuple[TensorElem, TensorElem, TensorElem],
) -> ThetaMap:
    """Attach the dual index and swap the middle legs: entry (a, c, b, k)
    is the (a, b, c) coefficient of curv[k].  The swap is a bijection, so
    the nonzero entries carry over one to one."""
    return {(a, c, b, k): coeff
            for k in _INDICES for (a, b, c), coeff in curv[k - 1].entries}


def _sum(xs: list[GScalar]) -> GScalar:
    """The sum of at most three scalars, which ``_gaussian`` reads as one
    row: one numerator sum over the lcm of their denominators, reduced
    once."""
    (pairs,), d = _gaussian(xs)
    return _norm(*map(sum, zip(*pairs)), d)


def ricci(theta: ThetaMap) -> TensorElem:
    """Contract the dual index against the third one-form leg.

    Moving e_k^* past e_c and evaluating kills every entry with c != k and
    leaves the first two legs: Ric(a, b) = sum_k theta(a, b, k, k).

    Raises ValueError when a key of theta is not a rank-4 index over 1..3
    or a contracted entry is not a scalar (or not an element at all).
    """
    _check_indices(4, theta)  # theta is the caller's map
    terms: dict[tuple[int, int], list[GScalar]] = {}
    for (a, b, c, k), coeff in theta.items():
        if c == k:
            s = coeff.as_scalar() if isinstance(coeff, AlgElem) else None
            if s is None:
                raise ValueError(f"curvature entry {(a, b, c, k)} is not a scalar")
            terms.setdefault((a, b), []).append(s)
    return TensorElem._of_scalars(2, {idx: _sum(xs) for idx, xs in terms.items()})


def scalar_curvature(g: Metric, ric: TensorElem) -> AlgElem:
    """Pair Ricci with the metric: sum of g(a, b) times the (a, b) entry.

    Raises ValueError when an entry of ric is not a scalar.
    """
    if ric.rank != 2:
        raise ValueError("scalar_curvature expects a rank-2 tensor")
    (r,), d_r = _table((ric,), "Ricci entry")
    gr, d_g = _gaussian([x for row in g.rows for x in row])
    return AlgElem.scalar(_norm(*_dot(gr[0] + gr[1] + gr[2], r[0] + r[1] + r[2]),
                                d_g * d_r))


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
