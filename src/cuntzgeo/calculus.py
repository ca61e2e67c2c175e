"""First- and second-order differential calculus on O_3 from the rotation action.

The three standard antisymmetric generators of so(3) act on the span of the
Cuntz generators; each gives a *-derivation ``derive(i, .)`` determined by

    derive(i, S_j) = sum_k X_i[j][k] * S_k

and the Leibniz rule.  One-forms and two-forms are free right modules of
rank 3 with central basis symbols ``e1, e2, e3`` and ``e12, e13, e23``;
coefficients are stored on the right, and centrality makes left and right
scalar multiples agree.

The degree-0 differential is ``d0(a) = sum_i e_i * derive(i, a)``.  The
product of one-forms ``omega * eta`` is the two-form with components
``a_i b_j - a_j b_i`` on ``e_ij``: in the operator representation the
symmetric part of ``e_i e_j`` collapses onto the identity ("junk"), which
the two-form quotient drops, so the product never forms it.
:func:`represented_product` adds the junk component back beside that same
two-form.  The degree-1 differential is the graded Leibniz rule on forms,

    d1(sum_i e_i a_i) = sum_i d(e_i) a_i - e_i d0(a_i),

from the fixed differentials of the basis one-forms; those agree with the
products ``d(S2*) d(S3)``, ``d(S1*) d(S3)`` and ``-d(S1*) d(S2)`` of their
presentations ``e1 = S2* d(S3)``, ``e2 = S1* d(S3)``, ``e3 = -S1* d(S2)``,
which the acceptance gate and ``verify-paper`` recompute.

Rank-2 and rank-3 tensors over the one-form module support the structural
maps used by the geometry layer: the symmetrizer :func:`sym_project`, the
flip :func:`flip`, the section :func:`antisym_lift` of the wedge map, and
the wedge map itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import AlgElem, Monomial
from .scalars import GScalar, ONE, ZERO, rational

# ---------------------------------------------------------------------------
# derivations induced by the rotation action
# ---------------------------------------------------------------------------

GENERATOR_MATRICES: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
    2: ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    3: ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
}


def derive(i: int, a: AlgElem) -> AlgElem:
    """Apply the i-th basis derivation (Leibniz over every tensor position).

    Replacing one letter at a time implements the Leibniz rule on the word
    ``S_mu S_nu^*``; the matrices are real, so the ``nu`` (adjoint) letters
    transform by the same rows.
    """
    if i not in (1, 2, 3):
        raise ValueError("derivation index must be 1, 2 or 3")
    mat = GENERATOR_MATRICES[i]
    acc: dict[Monomial, GScalar] = {}

    def _bump(key: Monomial, c: GScalar) -> None:
        total = acc.get(key, ZERO) + c
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)

    for m, c in a.terms:
        for p, letter in enumerate(m.mu):
            row = mat[letter - 1]
            for k in (1, 2, 3):
                f = row[k - 1]
                if f:
                    _bump(Monomial(m.mu[:p] + (k,) + m.mu[p + 1:], m.nu), c * f)
        for p, letter in enumerate(m.nu):
            row = mat[letter - 1]
            for k in (1, 2, 3):
                f = row[k - 1]
                if f:
                    _bump(Monomial(m.mu, m.nu[:p] + (k,) + m.nu[p + 1:]), c * f)
    return AlgElem.from_terms(acc)


def _det3(rows: Sequence[Sequence[GScalar]]) -> GScalar:
    a, b, c = rows
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def rotate(matrix: Sequence[Sequence[GScalar | int]], a: AlgElem) -> AlgElem:
    """Apply the *-automorphism sending S_i to ``sum_j matrix[i][j] S_j``.

    The matrix must be exactly special orthogonal; this is checked, since a
    non-isometry would not define an automorphism of the relations.
    """
    rows = [[GScalar.of(x) for x in row] for row in matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("rotation matrix must be 3x3")
    for i in range(3):
        for j in range(3):
            dot = sum((rows[k][i] * rows[k][j] for k in range(3)), ZERO)
            if dot != (ONE if i == j else ZERO):
                raise ValueError("matrix is not orthogonal (A^T A != I)")
    if _det3(rows) != ONE:
        raise ValueError("matrix has determinant != 1")

    images = [
        sum((AlgElem.generator(j + 1).scale(rows[i][j]) for j in range(3)),
            AlgElem.zero())
        for i in range(3)
    ]
    out = AlgElem.zero()
    for m, c in a.terms:
        factor = AlgElem.unit()
        for letter in m.mu:
            factor = factor * images[letter - 1]
        tail = AlgElem.unit()
        for letter in m.nu:
            tail = tail * images[letter - 1]
        out = out + (factor * tail.adjoint()).scale(c)
    return out


# ---------------------------------------------------------------------------
# one-forms and two-forms
# ---------------------------------------------------------------------------

WEDGE_PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3))


def _coeff(x: "AlgElem | GScalar | int") -> AlgElem:
    if isinstance(x, AlgElem):
        return x
    return AlgElem.scalar(GScalar.of(x))


@dataclass(frozen=True)
class _Form:
    """A dense element of a rank-3 free module with a central basis: one
    right coefficient per basis symbol, in the subclass's basis order.

    Arithmetic stays within one subclass; mixing a one-form and a two-form
    returns NotImplemented, and ``==`` and ``equals`` compare the types too.
    """

    c: tuple[AlgElem, AlgElem, AlgElem]

    @classmethod
    def zero(cls):
        z = AlgElem.zero()
        return cls((z, z, z))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(tuple(-a for a in self.c))

    def __mul__(self, other: object):
        if isinstance(other, (AlgElem, GScalar, int)):
            b = _coeff(other)
            return type(self)(tuple(a * b for a in self.c))
        return NotImplemented

    def __rmul__(self, other: object):
        if isinstance(other, (AlgElem, GScalar, int)):
            b = _coeff(other)
            return type(self)(tuple(b * a for a in self.c))
        return NotImplemented

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.c)

    def equals(self, other) -> bool:
        return type(other) is type(self) and all(
            a.equals(b) for a, b in zip(self.c, other.c))


class OneForm(_Form):
    """Element of the rank-3 free module: ``e1*c[0] + e2*c[1] + e3*c[2]``."""

    @staticmethod
    def of(c1, c2, c3) -> "OneForm":
        return OneForm((_coeff(c1), _coeff(c2), _coeff(c3)))

    @staticmethod
    def basis(i: int) -> "OneForm":
        if i not in (1, 2, 3):
            raise ValueError("basis index must be 1, 2 or 3")
        cs = [AlgElem.zero()] * 3
        cs[i - 1] = AlgElem.unit()
        return OneForm(tuple(cs))

    def component(self, i: int) -> AlgElem:
        return self.c[i - 1]

    def __mul__(self, other: object) -> "OneForm | TwoForm":
        """A one-form times a one-form is the two-form ``e_i e_j -> e_ij``:
        the antisymmetric part survives, the junk is never formed."""
        if isinstance(other, OneForm):
            a, b = self.c, other.c
            return TwoForm(tuple(a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]
                                 for i, j in WEDGE_PAIRS))
        return super().__mul__(other)


class TwoForm(_Form):
    """``e12*c[0] + e13*c[1] + e23*c[2]`` with the basis order of WEDGE_PAIRS."""

    @staticmethod
    def of(c12, c13, c23) -> "TwoForm":
        return TwoForm((_coeff(c12), _coeff(c13), _coeff(c23)))

    @staticmethod
    def basis(i: int, j: int) -> "TwoForm":
        if (i, j) not in WEDGE_PAIRS:
            raise ValueError(f"basis pair must be one of {WEDGE_PAIRS}")
        cs = [AlgElem.zero()] * 3
        cs[WEDGE_PAIRS.index((i, j))] = AlgElem.unit()
        return TwoForm(tuple(cs))

    def component(self, i: int, j: int) -> AlgElem:
        """Coefficient of e_ij; antisymmetric outside the stored i<j pairs."""
        if (i, j) in WEDGE_PAIRS:
            return self.c[WEDGE_PAIRS.index((i, j))]
        if (j, i) in WEDGE_PAIRS:
            return -self.c[WEDGE_PAIRS.index((j, i))]
        raise ValueError(f"no basis two-form with indices {(i, j)}")


@dataclass(frozen=True)
class RepTwoForm:
    """A product of one-forms before quotienting: junk (identity component)
    plus the antisymmetric part in the e_ij basis."""

    junk: AlgElem
    c: tuple[AlgElem, AlgElem, AlgElem]


def represented_product(omega: OneForm, eta: OneForm) -> RepTwoForm:
    """Multiply two one-forms in the operator representation.

    The symmetric part of ``e_i e_j`` collapses onto the identity (that is
    the junk two-form subspace); the antisymmetric part survives as e_ij.
    """
    a, b = omega.c, eta.c
    junk = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return RepTwoForm(junk, (omega * eta).c)


def junk_project(r: RepTwoForm) -> TwoForm:
    """Quotient by junk: keep only the antisymmetric (two-form) part."""
    return TwoForm(r.c)


def d0(a: AlgElem) -> OneForm:
    """Degree-0 differential ``a -> sum_i e_i * derive(i, a)``."""
    return OneForm((derive(1, a), derive(2, a), derive(3, a)))


# ---------------------------------------------------------------------------
# tensors over the one-form module
# ---------------------------------------------------------------------------

Index = tuple[int, ...]


@dataclass(frozen=True)
class TensorElem:
    """Element of the k-fold tensor power of the one-form module.

    Stored as (index tuple -> right coefficient); the basis symbols are
    central, so a single right coefficient per index is fully general.
    """

    rank: int
    entries: tuple[tuple[Index, AlgElem], ...]

    @staticmethod
    def _make(rank: int, mapping: dict[Index, AlgElem]) -> "TensorElem":
        cleaned = {}
        for idx, c in mapping.items():
            if len(idx) != rank:
                raise ValueError(f"index {idx} does not have rank {rank}")
            if any(not 1 <= i <= 3 for i in idx):
                raise ValueError(f"index {idx} outside 1..3")
            if not c.is_zero():
                cleaned[idx] = c
        return TensorElem(rank, tuple(sorted(cleaned.items(), key=lambda kv: kv[0])))

    @staticmethod
    def from_entries(rank: int,
                     mapping: Mapping[Index, AlgElem | GScalar | int]) -> "TensorElem":
        return TensorElem._make(rank, {tuple(k): _coeff(v) for k, v in mapping.items()})

    @staticmethod
    def zero(rank: int) -> "TensorElem":
        return TensorElem(rank, ())

    @staticmethod
    def basis(*indices: int) -> "TensorElem":
        return TensorElem.from_entries(len(indices), {tuple(indices): ONE})

    def entry(self, *indices: int) -> AlgElem:
        for idx, c in self.entries:
            if idx == indices:
                return c
        return AlgElem.zero()

    def entry_map(self) -> dict[Index, AlgElem]:
        return dict(self.entries)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        if not isinstance(other, TensorElem):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("tensor ranks differ")
        acc = self.entry_map()
        for idx, c in other.entries:
            acc[idx] = acc.get(idx, AlgElem.zero()) + c
        return TensorElem._make(self.rank, acc)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TensorElem":
        return TensorElem(self.rank, tuple((idx, -c) for idx, c in self.entries))

    def __mul__(self, other: object) -> "TensorElem":
        """Right multiplication on the coefficient."""
        if isinstance(other, (AlgElem, GScalar, int)):
            b = _coeff(other)
            return TensorElem._make(
                self.rank, {idx: c * b for idx, c in self.entries})
        return NotImplemented

    def scale(self, s: GScalar) -> "TensorElem":
        return TensorElem._make(self.rank, {idx: c.scale(s) for idx, c in self.entries})

    def flip_legs(self, a: int, b: int) -> "TensorElem":
        """Swap tensor positions a and b (0-based); valid since the basis is
        central and coefficients stay on the right."""
        if not (0 <= a < self.rank and 0 <= b < self.rank):
            raise ValueError("leg positions out of range")
        acc: dict[Index, AlgElem] = {}
        for idx, c in self.entries:
            lst = list(idx)
            lst[a], lst[b] = lst[b], lst[a]
            key = tuple(lst)
            acc[key] = acc.get(key, AlgElem.zero()) + c
        return TensorElem._make(self.rank, acc)

    def is_zero(self) -> bool:
        return not self.entries

    def equals(self, other: "TensorElem") -> bool:
        if self.rank != other.rank:
            return False
        keys = {idx for idx, _ in self.entries} | {idx for idx, _ in other.entries}
        return all(self.entry(*k).equals(other.entry(*k)) for k in keys)


def one_form_tensor(omega: OneForm) -> TensorElem:
    """View a one-form as a rank-1 tensor."""
    return TensorElem.from_entries(
        1, {(i,): omega.component(i) for i in (1, 2, 3)})


def tensor_product(t: TensorElem, u: "TensorElem | OneForm") -> TensorElem:
    if isinstance(u, OneForm):
        u = one_form_tensor(u)
    acc: dict[Index, AlgElem] = {}
    for idx_a, ca in t.entries:
        for idx_b, cb in u.entries:
            key = idx_a + idx_b
            prod = ca * cb
            acc[key] = acc.get(key, AlgElem.zero()) + prod
    return TensorElem._make(t.rank + u.rank, acc)


def sym_project_legs(t: TensorElem, a: int, b: int) -> TensorElem:
    """Symmetrize over two tensor positions: (id + swap)/2 on legs a, b."""
    half = rational(1, 2)
    return (t + t.flip_legs(a, b)).scale(half)


def sym_project(t: TensorElem) -> TensorElem:
    """Symmetrizer on rank-2 tensors."""
    if t.rank != 2:
        raise ValueError("sym_project expects a rank-2 tensor")
    return sym_project_legs(t, 0, 1)


def flip(t: TensorElem) -> TensorElem:
    """The module flip on rank-2 tensors: 2*sym_project - id."""
    if t.rank != 2:
        raise ValueError("flip expects a rank-2 tensor")
    return sym_project(t).scale(GScalar.of(2)) - t


def antisym_lift(w: TwoForm) -> TensorElem:
    """Section of the wedge map: e_ij -> (e_i⊗e_j - e_j⊗e_i)/2."""
    half = rational(1, 2)
    acc: dict[Index, AlgElem] = {}
    for (i, j), c in zip(WEDGE_PAIRS, w.c):
        if c.is_zero():
            continue
        acc[(i, j)] = acc.get((i, j), AlgElem.zero()) + c.scale(half)
        acc[(j, i)] = acc.get((j, i), AlgElem.zero()) - c.scale(half)
    return TensorElem._make(2, acc)


def wedge(t: TensorElem) -> TwoForm:
    """The multiplication map on rank-2 tensors: e_i⊗e_j -> e_i e_j in Ω²."""
    if t.rank != 2:
        raise ValueError("wedge expects a rank-2 tensor")
    comps = []
    for i, j in WEDGE_PAIRS:
        comps.append(t.entry(i, j) - t.entry(j, i))
    return TwoForm(tuple(comps))


# ---------------------------------------------------------------------------
# differentials of the basis one-forms, and the degree-1 differential
# ---------------------------------------------------------------------------

def _basis_differentials_from_presentations() -> tuple[TwoForm, TwoForm, TwoForm]:
    """Recompute d(e_i) from e1 = S2* d(S3), e2 = S1* d(S3), e3 = -S1* d(S2).

    Each presentation is a * db, so its differential is d(a) d(b).
    """
    s1, s2, s3 = (AlgElem.generator(i) for i in (1, 2, 3))
    return (d0(s2.adjoint()) * d0(s3),
            d0(s1.adjoint()) * d0(s3),
            -(d0(s1.adjoint()) * d0(s2)))


BASIS_DIFFERENTIALS: tuple[TwoForm, TwoForm, TwoForm] = (
    TwoForm.of(0, 0, 1),    # d(e1) =  e23
    TwoForm.of(0, -1, 0),   # d(e2) = -e13
    TwoForm.of(1, 0, 0),    # d(e3) =  e12
)


def d1(omega: OneForm) -> TwoForm:
    """Degree-1 differential, extended from the basis by the graded Leibniz
    rule: d(e_i * a) = d(e_i) * a - e_i * d0(a)."""
    out = TwoForm.zero()
    for i in (1, 2, 3):
        a = omega.component(i)
        if a.is_zero():
            continue
        out = out + BASIS_DIFFERENTIALS[i - 1] * a - OneForm.basis(i) * d0(a)
    return out


def differential(x: "AlgElem | OneForm") -> "OneForm | TwoForm":
    """Degree-dispatching differential (algebra -> Ω¹, Ω¹ -> Ω²)."""
    if isinstance(x, AlgElem):
        return d0(x)
    if isinstance(x, OneForm):
        return d1(x)
    raise TypeError("differential of degree >= 2 forms is outside this calculus")
