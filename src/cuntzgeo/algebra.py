"""Normal-form arithmetic in the dense *-subalgebra of the Cuntz algebra O₃.

An element is a finite linear combination of monomials ``S_mu S_nu^*`` where
``mu`` and ``nu`` are words over the alphabet ``{1, 2, 3}`` and the
generators satisfy the Cuntz relations

    S_i^* S_i = 1        sum_j S_j S_j^* = 1.

A letter, like every 1-based index of the package (a derivation, a basis
symbol, a tensor or metric index), is an ``int`` that is not a ``bool``, in
1..3; ``_index`` is that one rule.  ``monomial`` builds a word unchecked, and
its letters are checked where they enter an element (``from_terms``,
``tree_action``).

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
relation read right-to-left).  A canonical form is empty iff the element is
0, so :meth:`AlgElem.equals` only tests that the difference is empty: it
folds it in a ``_Sum`` and never sorts.  Equal term maps are one canonical
form and decide at once; different ones do not decide, as canonical forms
are not unique (``1 + S_1S_1^*`` and ``2 S_1S_1^* + S_2S_2^* + S_3S_3^*``).

Proof.  Strip from each term the longest common suffix u of its words: the
term is ``S_mu0 (S_u S_u^*) S_nu0^*`` with a root ``(mu0, nu0)`` whose words
do not end in one letter, and it sends the word ``nu0.z`` to ``mu0.z``.  If
terms of two roots sent one word to one image, the roots would be
``(mu0, nu0)`` and ``(mu0.r, nu0.r)``, and a nonempty r would make the
second no root.  So x = 0 iff for every root the projection sum
``P = sum_u c_u S_u S_u^*`` is 0, that is, iff on every long enough word w
the sum of c_u over the prefixes u of w is 0.  Suppose P = 0 has a term
(every c_u is nonzero) and take a longest u with a term.  It is not empty,
as ``c 1`` is not 0; write u = v.j and let s sum c over the prefixes of v.
Words through u give s + c_u = 0.  A sibling v.k without a term would give
s = 0 on words through it, hence c_u = 0; so all three siblings carry the
coefficient -s, a complete family, which a canonical form does not contain.

The collapse merges families deepest first, by the length |mu| + |nu| of
their members.  A merge deletes its three members and changes only the
parent term, which is shallower, so the merges of one level commute and the
canonical form is a function of the terms alone.  (Taking families in the
order of a hash set instead would let unrelated terms decide the result
whenever a family and the family of one of its members complete at once.)

Lemma (accumulating a sum).  Let A be canonical and add terms with keys T.
A family with no key in T keeps its coefficients from A, so it is not
complete.  A merge changes only its parent term and then examines the
parent's family.  So a collapse seeded from the families of T examines
every family that is complete when its level is reached, as a collapse
seeded from every term does, and both merge the same families.  Hence a
mutable fold that starts from a canonical element, updates the touched keys
and collapses from them alone (``_Sum``) stays canonical: each step gives
the canonical form of the merged terms, as a collapse from every term would.

``_Sum`` is the one code that adds canonical summands: elements, or the
canonical term maps that ``_canonical`` returns.  ``+`` and ``-`` are a
one-summand fold from ``self``; parsed sums and ``calculus.d1`` fold all
their summands into one accumulator, so their work is linear in the
summands' terms and the merges they cause.  An empty accumulator adopts its
first summand's terms, negated for a negative sign, with no merge and no
collapse: a canonical summand added to 0 is its own canonical form.
Everything else is a stream of (monomial, coefficient) pairs that need not
be canonical: products, derivations and outside terms (``from_terms``).
``_canonical`` merges them in one pass into a dict: it adds the
coefficients of a repeated monomial, deletes a key the moment its sum is 0
and never stores a fresh 0, then collapses from every term, seeded from the
members ``(mu.1, nu.1)``, since a complete family holds its member of letter
1.  ``calculus.d1`` folds the canonical map of each derivation into its
accumulator.  Every product of two elements is one ``_make``, whatever their
sizes.

Display order, (|nu|, nu, |mu|, mu), is a matter of presentation.  An
element holds the canonical map that ``_canonical`` or ``_Sum`` built, in
the order its keys were inserted, and every operation, ``==`` and the hash
work from that map, whose order they do not see.  Only the ``terms`` reader
sorts (``_ordered``), each time it is read, so a product, derivation, sum or
adjoint that nothing prints is never sorted.

The word-length cap is checked where a product forms a word, in
``_mul_monomials``, and where outside words come in, in ``from_terms``.
Sums, adjoints and derivations form no product word and do not check it.

Terms live in dicts keyed by :class:`Monomial`, a ``NamedTuple`` of the two
words, so keys hash and compare in C.  Products, derivations and a merge's
parent build their keys with ``tuple.__new__`` (``_new``), which skips the
NamedTuple's Python-level ``__new__``, and ``_collapse`` finds family
members by plain tuples, which equal the monomials.  ``_canonical``,
``_Sum`` and a merge's parent term store the coefficient of a key they do
not hold yet as it comes, or its negation, and add only onto a key they
hold.

``tree_action`` evaluates the standard representation on basis vectors
indexed by words: ``S_mu S_nu^*`` sends ``nu + w'`` to ``mu + w'`` and kills
every other word.  Two elements are equal iff their actions agree on all
words of length (max ``nu``-length) + 1; shorter words can spuriously
distinguish equal elements, e.g. ``1`` and ``S_1S_1^* + S_2S_2^* + S_3S_3^*``
at the empty word.
"""

from __future__ import annotations

__all__ = [
    "AlgElem",
    "CapacityError",
    "Monomial",
    "get_caps",
    "monomial",
    "set_caps",
]

import itertools
from dataclasses import FrozenInstanceError
from typing import Iterable, Mapping, NamedTuple, Sequence

from .scalars import GScalar, ONE, ZERO

Word = tuple[int, ...]


class CapacityError(Exception):
    """A configured resource cap (word length or term count) was exceeded."""


_MAX_WORD_LEN = 16
_MAX_TERMS = 100_000


def set_caps(max_word_len: int | None = None, max_terms: int | None = None) -> None:
    """Adjust the global resource caps (word length / stored term count)."""
    global _MAX_WORD_LEN, _MAX_TERMS
    if max_word_len is not None:
        if type(max_word_len) is not int or max_word_len < 1:
            raise ValueError("max_word_len must be a positive int")
        _MAX_WORD_LEN = max_word_len
    if max_terms is not None:
        if type(max_terms) is not int or max_terms < 1:
            raise ValueError("max_terms must be a positive int")
        _MAX_TERMS = max_terms


def get_caps() -> tuple[int, int]:
    return _MAX_WORD_LEN, _MAX_TERMS


def _check_word_lengths(monos: Iterable[Monomial]) -> None:
    for m in monos:
        if len(m.mu) > _MAX_WORD_LEN or len(m.nu) > _MAX_WORD_LEN:
            raise CapacityError(
                f"word length exceeds cap {_MAX_WORD_LEN} (raise it via set_caps)")


def _check_term_count(n: int) -> None:
    if n > _MAX_TERMS:
        raise CapacityError(
            f"term count {n} exceeds cap {_MAX_TERMS} (raise it via set_caps)")


# every letter and 1-based index, in order: the values _index accepts
_INDICES = (1, 2, 3)
_NOT_AN_INDEX = "index {!r} outside 1..3"
_NOT_A_LETTER = "letter {!r} outside alphabet 1..3"


def _index(i: object, what: str = _NOT_AN_INDEX, shown: object = None) -> int:
    """``i`` when it is an index: an ``int`` that is not a ``bool``, in 1..3.

    The one rule for every letter and every 1-based index of the package
    (the SO(3) action fixes both ranges at three).  Otherwise ValueError
    with the message ``what.format(shown)``, where ``shown`` defaults to i.
    """
    if type(i) is int and 1 <= i <= 3:
        return i
    raise ValueError(what.format(i if shown is None else shown))


def _as_word(w: Sequence[int] | str) -> Word:
    """The word of a string of ASCII digits or a sequence of letters,
    unchecked: a letter is checked once, where it enters an element.  A
    string character other than 0-9 is a ValueError at once, since ``int``
    would read any Unicode decimal digit, such as '٣', as a letter."""
    if not isinstance(w, str):
        return tuple(w)
    for ch in w:
        if ch not in "0123456789":
            raise ValueError(_NOT_A_LETTER.format(ch))
    return tuple(map(int, w))


class Monomial(NamedTuple):
    """The monomial ``S_mu S_nu^*``; ``mu == nu == ()`` is the unit.

    A tuple ``(mu, nu)``, so dict keys hash and compare in C; it equals the
    plain tuple of its two words.
    """

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


_UNIT = Monomial((), ())

# ``_new(Monomial, (mu, nu))`` builds a monomial with no Python frame (the
# NamedTuple ``__new__`` is a Python function); the words are not checked.
_new = tuple.__new__


def monomial(mu: Sequence[int] | str, nu: Sequence[int] | str = ()) -> Monomial:
    return Monomial(_as_word(mu), _as_word(nu))


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two monomials, or None when the prefixes clash (product 0).

    Every product word of the package is formed here, so this is where the
    word cap is checked: on both words of the product, whichever of them
    grew, since a factor may come from a larger cap."""
    nu, mu2 = a.nu, b.mu
    if len(nu) <= len(mu2):
        if mu2[: len(nu)] != nu:
            return None
        m = _new(Monomial, (a.mu + mu2[len(nu):], b.nu))
    elif nu[: len(mu2)] == mu2:
        m = _new(Monomial, (a.mu, b.nu + nu[len(mu2):]))
    else:
        return None
    if len(m.mu) > _MAX_WORD_LEN or len(m.nu) > _MAX_WORD_LEN:
        _check_word_lengths((m,))  # raises CapacityError
    return m


def _family_coefficient(terms: dict[Monomial, GScalar], mu: Word, nu: Word):
    """The coefficient shared by all three children ``(mu.j, nu.j)``, or
    None when the family is not complete."""
    first = terms.get((mu + (1,), nu + (1,)))
    if (first is None or terms.get((mu + (2,), nu + (2,))) != first
            or terms.get((mu + (3,), nu + (3,))) != first):
        return None
    return first


def _collapse(terms: dict[Monomial, GScalar],
              seeds: Iterable[Monomial] | None = None) -> None:
    """Apply the full-family collapse rewrite in place, to a fixed point.

    Whenever all three children ``(mu.j, nu.j)`` are present with one shared
    coefficient, they merge into ``(mu, nu)``.  Each merge can complete the
    family one level up, so candidates cascade until exhausted, deepest
    level first.  The first candidates are the families of ``seeds``; the
    module docstring says when they suffice.  With no seeds they are the
    families of every term, found from the members ``(mu.1, nu.1)`` alone,
    since a complete family holds its member of letter 1.
    """
    if len(terms) < 3:  # a family has three members
        return
    if seeds is None:
        pending = [(m.mu[:-1], m.nu[:-1]) for m in terms
                   if m.mu and m.nu and m.mu[-1] == 1 == m.nu[-1]]
    else:
        pending = {(m.mu[:-1], m.nu[:-1]) for m in seeds
                   if m.mu and m.nu and m.mu[-1] == m.nu[-1]}
    # only complete families and the families a merge changes need a visit
    levels: dict[int, list[tuple[Word, Word]]] = {}
    for mu, nu in pending:
        if _family_coefficient(terms, mu, nu) is not None:
            levels.setdefault(len(mu) + len(nu), []).append((mu, nu))
    while levels:
        level = max(levels)
        for mu, nu in levels.pop(level):
            first = _family_coefficient(terms, mu, nu)
            if first is None:
                continue
            for j in _INDICES:
                del terms[mu + (j,), nu + (j,)]
            old = terms.get((mu, nu))
            total = first if old is None else old + first
            if total:
                terms[_new(Monomial, (mu, nu))] = total
                if mu and nu and mu[-1] == nu[-1]:
                    levels.setdefault(level - 2, []).append((mu[:-1], nu[:-1]))
            else:
                terms.pop((mu, nu), None)


def _ordered(items: Iterable[tuple[Monomial, GScalar]]) -> tuple:
    """The terms as a tuple in the display order (|nu|, nu, |mu|, mu) of
    ``Monomial.sort_key``; only the ``AlgElem.terms`` reader calls it.  The
    key is that tuple with both words spread out, one call per term: after
    equal lengths the letters line up, so the order is the same, and a flat
    tuple of ints compares faster than one holding tuples."""
    return tuple(sorted(items, key=lambda kv: (len(nu := kv[0].nu), *nu,
                                               len(mu := kv[0].mu), *mu)))


class _Sum:
    """A left fold of ``+`` and ``-`` over canonical summands, in one mutable
    dict that starts from the canonical ``start`` (default 0).

    ``add(x, sign)`` leaves the terms of ``acc + x`` (``acc - x`` for a
    negative sign), term cap included, but touches only the keys of ``x``
    and the families they complete.  The lemma in the module docstring says
    why the result is the canonical form exactly.  A summand is an AlgElem
    or a canonical term map (as ``_canonical`` returns it); an empty
    accumulator adopts its terms, negated for a negative sign, with no merge
    and no collapse.
    """

    __slots__ = ("terms",)

    def __init__(self, start: "AlgElem | None" = None) -> None:
        self.terms: dict[Monomial, GScalar] = {} if start is None else dict(start._map)

    def add(self, x: "AlgElem | dict[Monomial, GScalar]", sign: int = 1) -> None:
        summand = x if isinstance(x, dict) else x._map
        terms = self.terms
        if not terms:
            self.terms = {m: -c for m, c in summand.items()} if sign < 0 else dict(summand)
            _check_term_count(len(self.terms))
            return
        for m, c in summand.items():
            old = terms.get(m)
            if old is None:
                terms[m] = -c if sign < 0 else c
                continue
            total = old - c if sign < 0 else old + c
            if total:
                terms[m] = total
            else:
                del terms[m]
        _collapse(terms, summand)
        _check_term_count(len(terms))

    def value(self) -> "AlgElem":
        """The element of the sum, unsorted.  It takes the accumulator's dict
        as it is, so the fold ends here."""
        return AlgElem(self.terms)


def _canonical(pairs: Iterable[tuple[Monomial, GScalar]]) -> dict[Monomial, GScalar]:
    """The canonical term map of the sum of (monomial, coefficient) pairs
    over the alphabet (operations keep them on it), in one pass: a repeated
    monomial adds its coefficients, a key whose sum is 0 is deleted at once
    and a fresh 0 is never stored, then complete families collapse.  Only
    the term cap is checked: the word cap is checked where words are
    formed (``_mul_monomials``) or come in (``from_terms``)."""
    terms: dict[Monomial, GScalar] = {}
    for m, c in pairs:
        old = terms.get(m)
        if old is None:
            if c != ZERO:  # 0 is the one reduced triple; tuples compare in C
                terms[m] = c
        elif (total := old + c) != ZERO:
            terms[m] = total
        else:
            del terms[m]
    _collapse(terms)
    _check_term_count(len(terms))
    return terms


class AlgElem:
    """An algebra element in canonical form.

    It holds its canonical term map (monomial -> nonzero coefficient) as
    ``_canonical`` or ``_Sum`` built it, and never changes it.  ``terms`` is
    the public view: the map as a tuple of (monomial, coefficient) pairs in
    the display order (|nu|, nu, |mu|, mu), sorted each time it is read.
    Every operation works from the map, so only what is read is sorted.
    Structural equality (``==``) means identical canonical form, whatever
    order the map was built in, and so does the hash; use :meth:`equals`
    for mathematical equality.  Attributes cannot be set or deleted.
    """

    __slots__ = ("_map",)

    def __init__(self, terms: dict[Monomial, GScalar]) -> None:
        """The element of a canonical term map, taken as it is: no copy, so
        the caller must not change the map afterwards."""
        _set_map(self, terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AlgElem, (self._map,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    @property
    def terms(self) -> tuple[tuple[Monomial, GScalar], ...]:
        """The (monomial, nonzero coefficient) pairs in display order."""
        return _ordered(self._map.items())

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(pairs: Iterable[tuple[Monomial, GScalar]]) -> "AlgElem":
        """The element of ``_canonical(pairs)``; no word length is checked
        here (see ``_canonical``)."""
        return AlgElem(_canonical(pairs))

    @staticmethod
    def from_terms(mapping: Mapping[Monomial, GScalar | int]) -> "AlgElem":
        """The canonical element of outside terms; every letter and every
        word length is checked, a term with coefficient 0 included."""
        for m in mapping:
            for letter in itertools.chain(m.mu, m.nu):
                _index(letter, _NOT_A_LETTER)
        pairs = [(m, GScalar.of(c)) for m, c in mapping.items()]
        _check_word_lengths(mapping)
        return AlgElem._make(pairs)

    @staticmethod
    def zero() -> "AlgElem":
        return AlgElem({})

    @staticmethod
    def unit() -> "AlgElem":
        return AlgElem({_UNIT: ONE})

    @staticmethod
    def scalar(c: "GScalar | int") -> "AlgElem":
        c = GScalar.of(c)
        return AlgElem({_UNIT: c} if c else {})

    @staticmethod
    def generator(i: int) -> "AlgElem":
        i = _index(i, "generator index {!r} outside 1..3")
        return AlgElem({Monomial((i,), ()): ONE})

    # -- views --------------------------------------------------------------

    def term_map(self) -> dict[Monomial, GScalar]:
        """A copy of the canonical term map, in no particular order."""
        return dict(self._map)

    def is_zero(self) -> bool:
        """True iff the element is 0: a canonical form is empty exactly
        then (see the module docstring)."""
        return not self._map

    def as_scalar(self) -> GScalar | None:
        """The scalar c when this element is c*1, else None."""
        terms = self._map
        if not terms:
            return ZERO
        return terms.get(_UNIT) if len(terms) == 1 else None

    # -- ring operations ----------------------------------------------------

    def _fold(self, other: object, sign: int) -> "AlgElem":
        """``self + other`` (``self - other`` for a negative sign) by ``_Sum``."""
        if not isinstance(other, AlgElem):
            c = GScalar._coerce(other)
            if c is None:
                return NotImplemented
            other = AlgElem.scalar(c)
        acc = _Sum(self)
        acc.add(other, sign)
        return acc.value()

    def __add__(self, other: object) -> "AlgElem":
        return self._fold(other, 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "AlgElem":
        return self._fold(other, -1)

    def __rsub__(self, other: object) -> "AlgElem":
        return (-self) + other

    def __neg__(self) -> "AlgElem":
        return AlgElem({m: -c for m, c in self._map.items()})

    def __mul__(self, other: object) -> "AlgElem":
        """The product, one ``_make`` over the pairs of terms.  Each word
        formed, also one whose coefficients cancel, passes the word cap in
        ``_mul_monomials``, so an over-long word raises ``CapacityError``
        as soon as it is formed."""
        if not isinstance(other, AlgElem):
            return self.__rmul__(other)  # a scalar is central
        right = other._map.items()
        return AlgElem._make(
            (prod, ca * cb) for ma, ca in self._map.items() for mb, cb in right
            if (prod := _mul_monomials(ma, mb)) is not None)

    def __rmul__(self, other: object) -> "AlgElem":
        c = GScalar._coerce(other)
        return NotImplemented if c is None else self.scale(c)

    def scale(self, c: "GScalar | int") -> "AlgElem":
        """``c`` times this element, for an exact scalar ``c`` (``GScalar.of``
        reads it, so anything else is a TypeError)."""
        c = GScalar.of(c)
        if not c:
            return AlgElem.zero()
        return AlgElem({m: c * coeff for m, coeff in self._map.items()})

    def adjoint(self) -> "AlgElem":
        # The adjoint maps complete families to complete families and
        # distinct monomials to distinct ones, so the adjoint of a canonical
        # map is canonical as it stands.
        return AlgElem({_new(Monomial, (nu, mu)): c.conjugate()
                        for (mu, nu), c in self._map.items()})

    # -- equality decision ---------------------------------------------------

    def equals(self, other: "AlgElem | int | GScalar") -> bool:
        """Mathematical equality modulo the Cuntz relations: the canonical
        difference is empty (see the module docstring for why that suffices).

        Equal term maps are one canonical form, so they decide at once;
        otherwise the difference is folded and tested with no sort.  An
        object with its own ``equals`` (a form or a tensor) decides, so the
        answer is the same both ways round: ``False``.  Any other non-scalar
        is a ``TypeError``."""
        if not isinstance(other, AlgElem):
            if GScalar._coerce(other) is None and hasattr(other, "equals"):
                return other.equals(self)
            return (self - other).is_zero()
        if self._map == other._map:
            return True
        acc = _Sum(self)
        acc.add(other, -1)
        return not acc.terms

    # -- representation on the word tree -------------------------------------

    def tree_action(self, w: Sequence[int] | str) -> dict[Word, GScalar]:
        """Image of the basis vector indexed by ``w`` under this element.

        Returns a map from result words to coefficients (zero images are
        dropped, so the empty dict means the word is annihilated).
        """
        word = _as_word(w)
        for letter in word:
            _index(letter, _NOT_A_LETTER)
        out: dict[Word, GScalar] = {}
        for m, c in self._map.items():
            k = len(m.nu)
            if word[:k] == m.nu:
                img = m.mu + word[k:]
                total = out.get(img, ZERO) + c
                if total:
                    out[img] = total
                else:
                    out.pop(img, None)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{m!r}: {c!r}" for m, c in self.terms)
        return f"AlgElem({{{inner}}})"


# the slot's own setter: ``AlgElem.__setattr__`` refuses every assignment
_set_map = AlgElem._map.__set__
