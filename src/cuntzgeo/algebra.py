"""Normal-form arithmetic in the dense *-subalgebra of the Cuntz algebra O₃.

An element is a finite linear combination of monomials ``S_mu S_nu^*`` where
``mu`` and ``nu`` are words over the alphabet ``{1, 2, 3}`` and the
generators satisfy the Cuntz relations

    S_i^* S_i = 1        sum_j S_j S_j^* = 1.

Words are stored as tuples of letters.  By convention the second word is
recorded so that ``S_nu^* = S_{nu(k)}^* ... S_{nu(1)}^*``; equivalently,
``(mu, nu)`` stands for ``S_{mu(1)} .. S_{mu(p)} S_{nu(q)}^* .. S_{nu(1)}^*``.
With that convention the product rule is prefix matching:

    (mu, nu) * (mu', nu') = (mu + r, nu')   if mu' = nu + r
                          = (mu, nu' + r)   if nu  = mu' + r
                          = 0               otherwise.

The stored form is canonical under two rewrites, applied to a fixed point:
zero coefficients are dropped, and any complete equal-coefficient family
``{(mu.j, nu.j) : j = 1, 2, 3}`` collapses to ``(mu, nu)`` (the second Cuntz
relation read right-to-left).  Canonical forms make printing deterministic;
they do *not* decide equality on their own.  Mathematical equality is decided
by :meth:`AlgElem.equals`, which homogenizes the difference so that all
``nu``-words share one length — monomials with a fixed ``nu``-length are
linearly independent, so the difference is zero iff the homogenized form is
empty.

``tree_action`` evaluates the standard representation on basis vectors
indexed by words: ``S_mu S_nu^*`` sends ``nu + w'`` to ``mu + w'`` and kills
every other word.  Two elements are equal iff their actions agree on all
words of length (max ``nu``-length) + 1; shorter words can spuriously
distinguish equal elements, e.g. ``1`` and ``S_1S_1^* + S_2S_2^* + S_3S_3^*``
at the empty word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import GScalar, ONE, ZERO

Word = tuple[int, ...]


class CapacityError(Exception):
    """A configured resource cap (word length or term count) was exceeded."""


_LETTERS = (1, 2, 3)
_MAX_WORD_LEN = 16
_MAX_TERMS = 100_000


def set_caps(max_word_len: int | None = None, max_terms: int | None = None) -> None:
    """Adjust the global resource caps (word length / stored term count)."""
    global _MAX_WORD_LEN, _MAX_TERMS
    if max_word_len is not None:
        if max_word_len < 1:
            raise ValueError("max_word_len must be positive")
        _MAX_WORD_LEN = max_word_len
    if max_terms is not None:
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        _MAX_TERMS = max_terms


def get_caps() -> tuple[int, int]:
    return _MAX_WORD_LEN, _MAX_TERMS


def _as_word(w: Sequence[int] | str) -> Word:
    if isinstance(w, str):
        return tuple(int(ch) for ch in w)
    return tuple(int(x) for x in w)


@dataclass(frozen=True)
class Monomial:
    """The monomial ``S_mu S_nu^*``; ``mu == nu == ()`` is the unit."""

    mu: Word
    nu: Word

    @property
    def is_unit(self) -> bool:
        return not self.mu and not self.nu

    def sort_key(self) -> tuple:
        return (len(self.nu), self.nu, len(self.mu), self.mu)

    def adjoint(self) -> "Monomial":
        return Monomial(self.nu, self.mu)

    def __repr__(self) -> str:
        return f"Monomial({self.mu}, {self.nu})"


def monomial(mu: Sequence[int] | str, nu: Sequence[int] | str = ()) -> Monomial:
    return Monomial(_as_word(mu), _as_word(nu))


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two monomials, or None when the prefixes clash (product 0)."""
    nu, mu2 = a.nu, b.mu
    if len(nu) <= len(mu2):
        if mu2[: len(nu)] == nu:
            return Monomial(a.mu + mu2[len(nu):], b.nu)
        return None
    if nu[: len(mu2)] == mu2:
        return Monomial(a.mu, b.nu + nu[len(mu2):])
    return None


def _collapse(terms: dict[Monomial, GScalar]) -> None:
    """Apply the full-family collapse rewrite in place, to a fixed point.

    Whenever all three children ``(mu.j, nu.j)`` are present with one shared
    coefficient, they merge into ``(mu, nu)``.  Each merge can complete the
    family one level up, so candidates cascade until exhausted.
    """
    pending = {
        (m.mu[:-1], m.nu[:-1])
        for m in terms
        if m.mu and m.nu and m.mu[-1] == m.nu[-1]
    }
    while pending:
        mu, nu = pending.pop()
        children = [Monomial(mu + (j,), nu + (j,)) for j in _LETTERS]
        first = terms.get(children[0])
        if first is None or any(terms.get(c) != first for c in children[1:]):
            continue
        for c in children:
            del terms[c]
        parent = Monomial(mu, nu)
        total = terms.get(parent, ZERO) + first
        if total:
            terms[parent] = total
            if mu and nu and mu[-1] == nu[-1]:
                pending.add((mu[:-1], nu[:-1]))
        else:
            terms.pop(parent, None)


@dataclass(frozen=True)
class AlgElem:
    """An algebra element in canonical form.

    ``terms`` is a tuple of (monomial, nonzero coefficient) pairs sorted by
    the display order (|nu|, nu, |mu|, mu).  Structural equality (``==``)
    means identical canonical form; use :meth:`equals` for mathematical
    equality.
    """

    terms: tuple[tuple[Monomial, GScalar], ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(mapping: dict[Monomial, GScalar]) -> "AlgElem":
        for m in mapping:
            if len(m.mu) > _MAX_WORD_LEN or len(m.nu) > _MAX_WORD_LEN:
                raise CapacityError(
                    f"word length exceeds cap {_MAX_WORD_LEN} (raise it via set_caps)")
            for letter in itertools.chain(m.mu, m.nu):
                if not 1 <= letter <= 3:
                    raise ValueError(f"letter {letter} outside alphabet 1..3")
        cleaned = {m: c for m, c in mapping.items() if c}
        _collapse(cleaned)
        if len(cleaned) > _MAX_TERMS:
            raise CapacityError(
                f"term count {len(cleaned)} exceeds cap {_MAX_TERMS} (raise it via set_caps)")
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: kv[0].sort_key()))
        return AlgElem(ordered)

    @staticmethod
    def from_terms(mapping: Mapping[Monomial, GScalar | int]) -> "AlgElem":
        return AlgElem._make({m: GScalar.of(c) for m, c in mapping.items()})

    @staticmethod
    def zero() -> "AlgElem":
        return AlgElem(())

    @staticmethod
    def unit() -> "AlgElem":
        return AlgElem.from_terms({Monomial((), ()): ONE})

    @staticmethod
    def scalar(c: "GScalar | int") -> "AlgElem":
        return AlgElem.from_terms({Monomial((), ()): GScalar.of(c)})

    @staticmethod
    def generator(i: int) -> "AlgElem":
        if not 1 <= i <= 3:
            raise ValueError(f"generator index {i} outside 1..3")
        return AlgElem(((Monomial((i,), ()), ONE),))

    # -- views --------------------------------------------------------------

    def term_map(self) -> dict[Monomial, GScalar]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        """True iff the canonical form is empty (sufficient, not necessary,
        for mathematical zero; see :meth:`equals`)."""
        return not self.terms

    def as_scalar(self) -> GScalar | None:
        """The scalar c when this element is c*1, else None."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and self.terms[0][0].is_unit:
            return self.terms[0][1]
        return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: object) -> "AlgElem":
        if isinstance(other, (int, GScalar)):
            other = AlgElem.scalar(GScalar.of(other))
        if not isinstance(other, AlgElem):
            return NotImplemented
        acc = self.term_map()
        for m, c in other.terms:
            acc[m] = acc.get(m, ZERO) + c
        return AlgElem._make(acc)

    __radd__ = __add__

    def __sub__(self, other: object) -> "AlgElem":
        if isinstance(other, (int, GScalar)):
            other = AlgElem.scalar(GScalar.of(other))
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "AlgElem":
        return (-self) + other

    def __neg__(self) -> "AlgElem":
        return AlgElem(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: object) -> "AlgElem":
        if isinstance(other, (int, GScalar)):
            return self.scale(GScalar.of(other))
        if not isinstance(other, AlgElem):
            return NotImplemented
        acc: dict[Monomial, GScalar] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                prod = _mul_monomials(ma, mb)
                if prod is None:
                    continue
                acc[prod] = acc.get(prod, ZERO) + ca * cb
        return AlgElem._make(acc)

    def __rmul__(self, other: object) -> "AlgElem":
        if isinstance(other, (int, GScalar)):
            return self.scale(GScalar.of(other))
        return NotImplemented

    def scale(self, c: GScalar) -> "AlgElem":
        if not c:
            return AlgElem.zero()
        return AlgElem(tuple((m, c * coeff) for m, coeff in self.terms))

    def adjoint(self) -> "AlgElem":
        return AlgElem._make({m.adjoint(): c.conjugate() for m, c in self.terms})

    # -- equality decision ---------------------------------------------------

    def equals(self, other: "AlgElem | int | GScalar") -> bool:
        """Mathematical equality modulo the Cuntz relations."""
        if isinstance(other, (int, GScalar)):
            other = AlgElem.scalar(GScalar.of(other))
        diff = self - other
        if not diff.terms:
            return True
        level = max(len(m.nu) for m, _ in diff.terms)
        return not homogenize_terms(diff, level)

    # -- representation on the word tree -------------------------------------

    def tree_action(self, w: Sequence[int] | str) -> dict[Word, GScalar]:
        """Image of the basis vector indexed by ``w`` under this element.

        Returns a map from result words to coefficients (zero images are
        dropped, so the empty dict means the word is annihilated).
        """
        word = _as_word(w)
        for letter in word:
            if not 1 <= letter <= 3:
                raise ValueError(f"letter {letter} outside alphabet 1..3")
        return tree_action_of(self.terms, word)

    def __repr__(self) -> str:
        inner = ", ".join(f"{m!r}: {c!r}" for m, c in self.terms)
        return f"AlgElem({{{inner}}})"


def tree_action_of(
    terms: Iterable[tuple[Monomial, GScalar]], word: Word
) -> dict[Word, GScalar]:
    """Tree action of a raw term list (not necessarily canonical)."""
    out: dict[Word, GScalar] = {}
    for m, c in terms:
        k = len(m.nu)
        if len(word) >= k and word[:k] == m.nu:
            img = m.mu + word[k:]
            total = out.get(img, ZERO) + c
            if total:
                out[img] = total
            else:
                out.pop(img, None)
    return out


def homogenize_terms(x: AlgElem, level: int) -> dict[Monomial, GScalar]:
    """Rewrite x so every ``nu``-word has length ``level``.

    Each term ``(mu, nu)`` with ``|nu| < level`` becomes the sum of
    ``(mu+w, nu+w)`` over all words w of the missing length (inserting
    ``sum_j S_j S_j^* = 1`` repeatedly).  The result is a raw term map, not
    an AlgElem — re-normalizing would just collapse it back.
    """
    out: dict[Monomial, GScalar] = {}
    count = 0
    for m, c in x.terms:
        gap = level - len(m.nu)
        if gap < 0:
            raise ValueError("level below an existing nu-length")
        count += 3 ** gap
        if count > _MAX_TERMS:
            raise CapacityError(
                f"homogenization needs more than {_MAX_TERMS} terms")
        for w in words_of_length(gap):
            key = Monomial(m.mu + w, m.nu + w)
            total = out.get(key, ZERO) + c
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def words_of_length(length: int) -> Iterator[Word]:
    return itertools.product(_LETTERS, repeat=length)
