"""Exact linear solving over Gaussian-rational matrices.

Fraction-free (Bareiss-style) forward elimination keeps every intermediate
entry a ratio of minors — all divisions are exact — followed by ordinary back
substitution.  The right-hand side entries may be any values supporting
``-`` and ``*`` by a GScalar on the right (algebra elements in practice), so
one solve covers both scalar and operator-valued systems.

Pivoting is deterministic: the lowest row index with a nonzero entry.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .scalars import GScalar, ONE, ZERO

V = TypeVar("V")


class SingularSystemError(ValueError):
    """The coefficient matrix is singular (no unique solution)."""


def solve_exact(matrix: Sequence[Sequence[GScalar]], rhs: Sequence[V]) -> list[V]:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("right-hand side length must match the matrix")
    m = [list(row) for row in matrix]
    b = list(rhs)

    prev = ONE
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if m[r][k]), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {k}")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            b[k], b[pivot_row] = b[pivot_row], b[k]
        p = m[k][k]
        inv_prev = ONE / prev
        for i in range(k + 1, n):
            f = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (p * m[i][j] - f * m[k][j]) * inv_prev
            b[i] = (b[i] * p - b[k] * f) * inv_prev
            m[i][k] = ZERO
        prev = p

    x: list[V] = [None] * n  # type: ignore[list-item]
    for i in reversed(range(n)):
        acc = b[i]
        for j in range(i + 1, n):
            acc = acc - x[j] * m[i][j]
        x[i] = acc * (ONE / m[i][i])
    return x
