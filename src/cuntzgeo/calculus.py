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

from the fixed differentials ``d(e1) = e23``, ``d(e2) = -e13`` and
``d(e3) = e12`` of the basis one-forms; those agree with the products
``d(S2*) d(S3)``, ``d(S1*) d(S3)`` and ``-d(S1*) d(S2)`` of their
presentations ``e1 = S2* d(S3)``, ``e2 = S1* d(S3)``, ``e3 = -S1* d(S2)``,
which the acceptance gate and ``verify-paper`` recompute.  As ``e_i d0(a)``
is ``D_q(a)`` on ``e_iq`` and ``-D_p(a)`` on ``e_pi``, where
``D_k = derive(k, .)``, the component on ``e_pq`` is

    d1(omega)_pq = sum_i d(e_i)_pq a_i - D_q(a_p) + D_p(a_q),

which :func:`d1` sums in this order:

    e12:  - D2(a1) + D1(a2) + a3
    e13:  - D3(a1) - a2     + D1(a3)
    e23:    a1     - D3(a2) + D2(a3)

``D_i(a_i)`` never occurs, so a nonzero ``a_i`` costs two derivations.

Rank-2 and rank-3 tensors over the one-form module support the structural
maps of the calculus: the symmetrizer :func:`sym_project`, the flip
:func:`flip` (the leg swap), the section :func:`antisym_lift` of the wedge
map, and the wedge map itself.
"""

from __future__ import annotations

__all__ = [
    "BASIS_DIFFERENTIALS",
    "OneForm",
    "RepTwoForm",
    "TensorElem",
    "TwoForm",
    "antisym_lift",
    "d0",
    "d1",
    "derive",
    "differential",
    "flip",
    "junk_project",
    "one_form_tensor",
    "represented_product",
    "rotate",
    "sym_project",
    "tensor_product",
    "wedge",
]

from typing import Iterable, Mapping, Sequence

from .algebra import (
    _INDICES, _NOT_AN_INDEX, _UNIT, AlgElem, Key, _check_term_count, _collapse, _index,
    _Record, _shifts, _Sum)
from .scalars import GScalar, ONE, ZERO, rational

# ---------------------------------------------------------------------------
# derivations induced by the rotation action
# ---------------------------------------------------------------------------

GENERATOR_MATRICES: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
    2: ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    3: ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
}


def _step(letter: int, row: tuple[int, int, int]) -> tuple[int, bool] | None:
    """(image letter - letter, entry is +1) for the one nonzero entry of a
    letter's row of a generator matrix, or None for a zero row.  Replacing
    the digit of the letter at bit t by its image adds the difference,
    shifted by t, to a word's code."""
    for k, f in zip(_INDICES, row):
        if f:
            return k - letter, f > 0
    return None


# _STEPS[i][letter] is the step of a letter under X_i: None for letter i
_STEPS = {i: (None, *map(_step, _INDICES, rows)) for i, rows in GENERATOR_MATRICES.items()}


def derive(i: int, a: AlgElem) -> AlgElem:
    """Apply the i-th basis derivation (Leibniz over every tensor position).

    Replacing one letter at a time implements the Leibniz rule on the word
    ``S_mu S_nu^*``; the matrices are real, so the ``nu`` (adjoint) letters
    transform by the same rows.  Each row has at most one nonzero entry,
    ±1, so a letter has at most one image, applied as a sign.  Each image
    merges into the result's map in the letter loop that forms it, by the
    merge rules of the ``algebra`` module docstring: it adds onto an image
    of the same monomial, and a sum of 0 is deleted.  The terms are walked
    in the order of the element's map, and the result is not sorted: its
    ``terms`` reader sorts it when read.
    """
    i = _index(i, "derivation index {!r} outside 1..3")
    return AlgElem(_derive_terms(i, a))


def _derive_terms(i: int, a: AlgElem, sign: int = 1) -> dict[Key, GScalar]:
    """The canonical term map of ``derive(i, a)``, or of ``-derive(i, a)``
    for a negative sign; ``i`` is not checked (``derive`` checks it, and
    ``d1`` makes its own).  Whatever the sign, each term's coefficient is
    negated once, and its images take it or its negation.  An image keeps
    the lengths of its term's words, so no word length is checked: like a
    sum or an adjoint, a derivation makes no longer word.  The letters of a
    word are visited first to last (``algebra._shifts``); the map ends with
    the collapse and the term cap, as a product's map ends."""
    steps = _STEPS[i]
    terms: dict[Key, GScalar] = {}
    for (mu, nu), c in a._map.items():
        neg = -c
        if sign < 0:
            c, neg = neg, c
        for t in _shifts(mu):
            if (step := steps[mu >> t & 3]) is not None:
                key, img = (mu + (step[0] << t), nu), c if step[1] else neg
                if (old := terms.get(key)) is None:
                    terms[key] = img
                elif (img := old + img) != ZERO:
                    terms[key] = img
                else:
                    del terms[key]
        for t in _shifts(nu):
            if (step := steps[nu >> t & 3]) is not None:
                key, img = (mu, nu + (step[0] << t)), c if step[1] else neg
                if (old := terms.get(key)) is None:
                    terms[key] = img
                elif (img := old + img) != ZERO:
                    terms[key] = img
                else:
                    del terms[key]
    _collapse(terms)
    _check_term_count(len(terms))
    return terms


def _is_3x3(rows: object) -> bool:
    """Whether rows is three lists or tuples of three; a ``GScalar`` is a
    tuple of three ints, but it is a scalar, not a row."""
    return isinstance(rows, (list, tuple)) and len(rows) == 3 and all(
        isinstance(row, (list, tuple)) and not isinstance(row, GScalar)
        and len(row) == 3 for row in rows)


def _det3(rows: Sequence[Sequence[GScalar]]) -> GScalar:
    a, b, c = rows
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def rotate(matrix: Sequence[Sequence[GScalar | int]], a: AlgElem) -> AlgElem:
    """Apply the *-automorphism sending S_i to ``sum_j matrix[i][j] S_j``.

    The matrix, three lists or tuples of three exact scalars, must be
    exactly special orthogonal; this is checked, since a non-isometry would
    not define an automorphism of the relations.  Its entries must be real:
    A^T A = I has no conjugate, so a complex orthogonal matrix passes it
    without being unitary, and S_i* S_i = 1 would fail for its images.
    """
    if not _is_3x3(matrix):
        raise ValueError("rotation matrix must be 3x3")
    rows = [[GScalar.of(x) for x in row] for row in matrix]
    if any(x[1] for row in rows for x in row):
        raise ValueError("rotation matrix must be real")
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
    out = _Sum()
    for m, c in a.terms:
        factor = AlgElem.unit()
        for letter in m.mu:
            factor = factor * images[letter - 1]
        tail = AlgElem.unit()
        for letter in m.nu:
            tail = tail * images[letter - 1]
        out.add((factor * tail.adjoint()).scale(c))
    return out.value()


# ---------------------------------------------------------------------------
# one-forms and two-forms
# ---------------------------------------------------------------------------

WEDGE_PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3))


def _coeff(x: "AlgElem | GScalar | int") -> AlgElem:
    return x if isinstance(x, AlgElem) else AlgElem.scalar(x)


def _factor(x: object) -> "AlgElem | GScalar | None":
    """An AlgElem, an exact scalar as a GScalar, or None for anything else."""
    return x if isinstance(x, AlgElem) else GScalar._coerce(x)


class _Form(_Record):
    """A dense element of a rank-3 free module with a central basis: one
    right coefficient per basis symbol, in the subclass's basis order,
    stored as a tuple of exactly three ``AlgElem`` values (ValueError
    otherwise).

    Arithmetic stays within one subclass; mixing a one-form and a two-form
    returns NotImplemented, and ``==`` and ``equals`` compare the types too.
    """

    __slots__ = ("c",)

    def __init__(self, c: Iterable[AlgElem]) -> None:
        c = tuple(c)
        if len(c) != 3 or not all(isinstance(a, AlgElem) for a in c):
            raise ValueError(f"{type(self).__name__} takes three AlgElem coefficients")
        object.__setattr__(self, "c", c)  # every form is built here: no zip loop

    @classmethod
    def zero(cls):
        z = AlgElem.zero()
        return cls((z, z, z))

    @classmethod
    def of(cls, *coeffs: "AlgElem | GScalar | int"):
        """The form with these three coefficients, in the basis order."""
        return cls(tuple(map(_coeff, coeffs)))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.c))

    def __mul__(self, other: object):
        f = _factor(other)
        return NotImplemented if f is None else type(self)(tuple(a * f for a in self.c))

    def __rmul__(self, other: object):
        f = _factor(other)
        return NotImplemented if f is None else type(self)(tuple(f * a for a in self.c))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.c)

    def equals(self, other) -> bool:
        return type(other) is type(self) and all(
            a.equals(b) for a, b in zip(self.c, other.c))


class OneForm(_Form):
    """Element of the rank-3 free module: ``e1*c[0] + e2*c[1] + e3*c[2]``."""

    __slots__ = ()
    LABELS = ("e1", "e2", "e3")  # the basis symbols, in the order of c

    @staticmethod
    def basis(i: int) -> "OneForm":
        cs = [AlgElem.zero()] * 3
        cs[_index(i) - 1] = AlgElem.unit()
        return OneForm(tuple(cs))

    def component(self, i: int) -> AlgElem:
        return self.c[_index(i) - 1]

    def __mul__(self, other: object) -> "OneForm | TwoForm":
        """A one-form times a one-form is the two-form ``e_i e_j -> e_ij``:
        the antisymmetric part survives, the junk is never formed."""
        if isinstance(other, OneForm):
            a, b = self.c, other.c
            return TwoForm(tuple(a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]
                                 for i, j in WEDGE_PAIRS))
        return super().__mul__(other)


class TwoForm(_Form):
    """``e12*c[0] + e13*c[1] + e23*c[2]`` with the basis order of WEDGE_PAIRS:
    for i < j, e_ij is ``c[i + j - 3]``."""

    __slots__ = ()
    LABELS = tuple(f"e{i}{j}" for i, j in WEDGE_PAIRS)

    @staticmethod
    def basis(i: int, j: int) -> "TwoForm":
        if not _index(i) < _index(j):
            raise ValueError(f"basis pair must be one of {WEDGE_PAIRS}")
        cs = [AlgElem.zero()] * 3
        cs[i + j - 3] = AlgElem.unit()
        return TwoForm(tuple(cs))

    def component(self, i: int, j: int) -> AlgElem:
        """Coefficient of e_ij; antisymmetric outside the stored i<j pairs."""
        if _index(i) == _index(j):
            raise ValueError(f"no basis two-form with indices {(i, j)}")
        c = self.c[i + j - 3]
        return c if i < j else -c


class RepTwoForm(_Record):
    """A product of one-forms before quotienting: junk (identity component)
    plus the antisymmetric part in the e_ij basis."""

    __slots__ = ("junk", "c")

    def __init__(self, junk: AlgElem, c: tuple[AlgElem, AlgElem, AlgElem]) -> None:
        super().__init__(junk, c)


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


def _check_indices(rank: int, indices: Iterable[Index]) -> None:
    """Raise ValueError unless ``rank`` is an int (not a bool) of at least 1
    and each index is a tuple of ``rank`` ints that pass ``algebra._index``;
    the message names the whole index."""
    if type(rank) is not int or rank < 1:
        raise ValueError(f"tensor rank {rank!r} is not an int of at least 1")
    for idx in indices:
        if not isinstance(idx, tuple) or len(idx) != rank:
            raise ValueError(f"index {idx!r} does not have rank {rank}")
        for i in idx:
            _index(i, _NOT_AN_INDEX, idx)


class TensorElem(_Record):
    """Element of the k-fold tensor power of the one-form module.

    Stored as (index tuple -> right coefficient); the basis symbols are
    central, so a single right coefficient per index is fully general.

    The constructor is the one door: it takes any iterable of (index,
    coefficient) pairs.  The rank must be an int of at least 1, every index
    a tuple of ``rank`` ints in 1..3 (``_check_indices``), every coefficient
    an ``AlgElem``, and no index may repeat, else ValueError naming the
    index.  It drops zero entries and stores the rest as a tuple sorted by
    index.  So no reader of ``entries`` meets an index that would land on
    another entry or be dropped, and one tensor has one stored form.  Every
    operation builds its result here; only ``_of_scalars``, which wraps the
    geometry's and the curvature's exact tables, skips the checks by its
    precondition.
    """

    __slots__ = ("rank", "entries")

    def __init__(self, rank: int, entries: Iterable[tuple[Index, AlgElem]]) -> None:
        entries, seen = tuple(entries), set()
        _check_indices(rank, (idx for idx, _ in entries))
        for idx, c in entries:
            if idx in seen:
                raise ValueError(f"index {idx!r} is repeated")
            if not isinstance(c, AlgElem):
                raise ValueError(f"coefficient at index {idx!r} is not an AlgElem: {c!r}")
            seen.add(idx)
        # the indices are distinct, so sorting the pairs never compares two
        # coefficients
        super().__init__(rank, tuple(sorted((idx, c) for idx, c in entries if not c.is_zero())))

    @staticmethod
    def _of_scalars(rank: int, scalars: Mapping[Index, GScalar]) -> "TensorElem":
        """The tensor with ``AlgElem.scalar(c)`` at each index: the stored
        form that the constructor gives, set on a new record with no check.

        Precondition: every index is a tuple of ``rank`` ints in 1..3 (the
        package's own loops over the index range make them) and every
        scalar a reduced ``GScalar`` (as ``scalars._norm`` returns it).
        Zero scalars are dropped, so each kept one is wrapped as the term
        map ``{_UNIT: c}`` with none of ``AlgElem.scalar``'s coercion or
        zero test, and the indices, which are distinct, are sorted once.
        """
        t = object.__new__(TensorElem)
        _Record.__init__(t, rank, tuple((idx, AlgElem({_UNIT: c}))
                                        for idx, c in sorted(scalars.items()) if c))
        return t

    @staticmethod
    def from_entries(rank: int,
                     mapping: Mapping[Index, AlgElem | GScalar | int]) -> "TensorElem":
        return TensorElem(rank, ((k, _coeff(v)) for k, v in mapping.items()))

    @staticmethod
    def zero(rank: int) -> "TensorElem":
        return TensorElem(rank, ())

    @staticmethod
    def basis(*indices: int) -> "TensorElem":
        return TensorElem.from_entries(len(indices), {tuple(indices): ONE})

    def entry(self, *indices: int) -> AlgElem:
        _check_indices(self.rank, (indices,))
        for idx, c in self.entries:
            if idx == indices:
                return c
        return AlgElem.zero()

    def entry_map(self) -> dict[Index, AlgElem]:
        return dict(self.entries)

    def _fold(self, other: object, sign: int) -> "TensorElem":
        """``self + other`` (``self - other`` for a negative sign), entry by entry."""
        if not isinstance(other, TensorElem):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("tensor ranks differ")
        acc = self.entry_map()
        zero = AlgElem.zero()
        for idx, c in other.entries:
            old = acc.get(idx, zero)
            acc[idx] = old - c if sign < 0 else old + c
        return TensorElem(self.rank, acc.items())

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return self._fold(other, 1)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        return self._fold(other, -1)

    def __neg__(self) -> "TensorElem":
        return self * -1

    def __mul__(self, other: object) -> "TensorElem":
        """Right multiplication on the coefficient."""
        f = _factor(other)
        return NotImplemented if f is None else TensorElem(
            self.rank, ((idx, c * f) for idx, c in self.entries))

    def scale(self, s: "AlgElem | GScalar | int") -> "TensorElem":
        """``self * s``: the operand rule of ``*``."""
        return self * s

    def flip_legs(self, a: int, b: int) -> "TensorElem":
        """Swap tensor positions a and b (0-based); valid since the basis is
        central and coefficients stay on the right."""
        if not (0 <= a < self.rank and 0 <= b < self.rank):
            raise ValueError("leg positions out of range")
        pairs = []
        for idx, c in self.entries:
            lst = list(idx)
            lst[a], lst[b] = lst[b], lst[a]
            pairs.append((tuple(lst), c))
        return TensorElem(self.rank, pairs)

    def is_zero(self) -> bool:
        return not self.entries

    def equals(self, other: object) -> bool:
        return (isinstance(other, TensorElem) and self.rank == other.rank
                and (self - other).is_zero())


def one_form_tensor(omega: OneForm) -> TensorElem:
    """View a one-form as a rank-1 tensor."""
    return TensorElem.from_entries(
        1, {(i,): omega.component(i) for i in _INDICES})


def tensor_product(t: TensorElem, u: "TensorElem | OneForm") -> TensorElem:
    if isinstance(u, OneForm):
        u = one_form_tensor(u)
    return TensorElem(t.rank + u.rank, ((idx_a + idx_b, ca * cb)
                                        for idx_a, ca in t.entries
                                        for idx_b, cb in u.entries))


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
    """The module flip on rank-2 tensors.  The flip is 2*sym_project - id,
    and on the central basis sym_project averages a tensor and its leg
    swap, so the flip reduces to that swap."""
    if t.rank != 2:
        raise ValueError("flip expects a rank-2 tensor")
    return t.flip_legs(0, 1)


def antisym_lift(w: TwoForm) -> TensorElem:
    """Section of the wedge map: e_ij -> (e_i⊗e_j - e_j⊗e_i)/2."""
    half = rational(1, 2)
    pairs = []
    for (i, j), c in zip(WEDGE_PAIRS, w.c):
        h = c.scale(half)
        pairs += [((i, j), h), ((j, i), -h)]
    return TensorElem(2, pairs)


def wedge(t: TensorElem) -> TwoForm:
    """The multiplication map on rank-2 tensors: e_i⊗e_j -> e_i e_j in Ω²."""
    if t.rank != 2:
        raise ValueError("wedge expects a rank-2 tensor")
    entries, zero = t.entry_map(), AlgElem.zero()
    return TwoForm(tuple(entries.get((i, j), zero) - entries.get((j, i), zero)
                         for i, j in WEDGE_PAIRS))


# ---------------------------------------------------------------------------
# differentials of the basis one-forms, and the degree-1 differential
# ---------------------------------------------------------------------------

def _basis_differentials_from_presentations() -> tuple[TwoForm, TwoForm, TwoForm]:
    """Recompute d(e_i) from e1 = S2* d(S3), e2 = S1* d(S3), e3 = -S1* d(S2).

    Each presentation is a * db, so its differential is d(a) d(b).
    """
    s1, s2, s3 = (AlgElem.generator(i) for i in _INDICES)
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
    rule d(e_i * a) = d(e_i) * a - e_i * d0(a).

    Each component is one left fold (``_Sum``) of the summands in the
    module docstring, taken in the order of i and, for one i, the d(e_i)
    term first: the ±1 entry of ``BASIS_DIFFERENTIALS[i - 1]`` adds or
    subtracts a_i, and e_pq adds ``-derive(q, a_i)`` when p = i and
    ``derive(p, a_i)`` when q = i.  The derivation takes the sign itself
    (``_derive_terms(q, a_i, -1)``), so each term of a_i is negated once
    rather than once for ``-a_i`` and again for its images; negation keeps
    a map canonical, so the sum is the same.  Each derivation is folded as its
    canonical term map: canonical forms are not unique (``1 + S1S1*`` and
    ``2 S1S1* + S2S2* + S3S3*`` are both canonical), so raw images would
    change the result.  So the result is the same canonical form as the
    fold of TwoForm sums over i, with two derivations per nonzero a_i and no
    sort: a component is sorted only when its ``terms`` are read.
    """
    sums = [_Sum() for _ in WEDGE_PAIRS]
    for i, a in zip(_INDICES, omega.c):
        if a.is_zero():
            continue
        for acc, e, (p, q) in zip(sums, BASIS_DIFFERENTIALS[i - 1].c, WEDGE_PAIRS):
            if not e.is_zero():
                acc.add(a, 1 if e.as_scalar() == ONE else -1)
            if p == i:
                acc.add(_derive_terms(q, a, -1))
            elif q == i:
                acc.add(_derive_terms(p, a))
    return TwoForm(tuple(acc.value() for acc in sums))


def differential(x: "AlgElem | OneForm") -> "OneForm | TwoForm":
    """Degree-dispatching differential (algebra -> Ω¹, Ω¹ -> Ω²), the one
    that the parser's ``d(...)`` and the ``d`` command apply.  A two-form is
    outside this calculus; any other type is not a form, and the
    ``TypeError`` names it."""
    if isinstance(x, AlgElem):
        return d0(x)
    if isinstance(x, OneForm):
        return d1(x)
    if isinstance(x, TwoForm):
        raise TypeError("differential of degree >= 2 forms is outside this calculus")
    raise TypeError(f"differential takes an AlgElem or a OneForm, not {type(x).__name__}")
