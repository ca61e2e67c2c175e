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

A word is a tuple of letters outside an element (:class:`Monomial`).  By
convention the second word is recorded so that
``S_nu^* = S_{nu(k)}^* ... S_{nu(1)}^*``; equivalently, ``(mu, nu)`` stands
for ``S_{mu(1)} .. S_{mu(p)} S_{nu(q)}^* .. S_{nu(1)}^*``.  With that
convention the product rule is prefix matching:

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
canonical term maps of derivations.  ``+`` and ``-`` are a one-summand fold
from ``self``; parsed sums and ``calculus.d1`` fold all their summands into
one accumulator, so their work is linear in the summands' terms and the
merges they cause.  An empty accumulator adopts its first summand's terms,
negated for a negative sign, with no merge and no collapse: a canonical
summand added to 0 is its own canonical form.  A summand of one term
collapses only when both its words end in one letter, since only then is
it a family member.

Everything else forms terms that need not be canonical: products
(``AlgElem.__mul__``), derivations (``calculus._derive_terms``) and outside
terms (``from_terms``).  A product or a derivation merges a term into its
dict in the loop that forms it, by three rules: it adds the coefficient of
a key it holds, deletes a key the moment its sum is 0, and never stores a
fresh 0 (a product or a derivation image of nonzero coefficients is never
0).  Outside terms need no merge: they come as a mapping, whose keys are
distinct monomials and so have distinct codes, and ``from_terms`` stores
the nonzero ones as they come.  Each then collapses from every term,
seeded from the members ``(mu.1, nu.1)``, since a complete family holds
its member of letter 1, and checks the term cap.  ``calculus.d1`` folds
the canonical map of each derivation into its accumulator.  Every product
of two elements is one loop over the pairs of terms, whatever their sizes.

Display order, (|nu|, nu, |mu|, mu), is a matter of presentation.  An
element holds the canonical map that its producer built (a product, a
derivation, ``from_terms`` or ``_Sum``), in the order its keys were
inserted, and every operation, ``==`` and the hash work from that map,
whose order they do not see.  Only the readers of the sorted terms,
``terms`` and the printer, sort (``_ordered``), each time they read, so a
product, derivation, sum or adjoint that nothing prints is never sorted.

The word-length cap is checked where a product forms a word: in the pair
loop of ``AlgElem.__mul__``, on both words of each key it forms, and in
``_times_letters``, on the word a letter of a generator run grew.  It is
also checked where outside words come in, in ``from_terms``.  Sums,
adjoints and derivations form no product word and do not check it.

Inside an element a word is its base-4 code (``_code``): the letters are the
digits, the first letter the most significant, and the empty word is 0.  A
term's key is the pair ``(code of mu, code of nu)``, two ints, which hash
and compare in C (a pair, not one int, as ``set_caps`` bounds no length).
No digit is 0, so a word of n letters has 2n - 1 or 2n bits, and every word
operation is integer arithmetic: the length is ``(bit_length + 1) >> 1``, the
last letter ``code & 3``, dropping it ``code >> 2`` and appending j
``code << 2 | j``; u is a prefix of w iff ``w >> 2(|w| - |u|) == u``, and
replacing the digit l at bit t by k adds ``(k - l) << t``.  Other modules
build and walk codes only through ``_code``, ``_word`` and ``_shifts`` (the
bit t of each letter, first to last; the letter is ``code >> t & 3``).
Codes of more letters are larger, so numeric order is shortlex order and
the display order is that of ``(nu code, mu code)``.  The map between words
and codes keeps letters, lengths, prefixes and families, so every canonical
form is the one the words give.  Codes become words again, and keys
:class:`Monomial` values, only where they leave an element (``terms``,
``term_map``, ``repr`` and the images of ``tree_action``); ``from_terms``
turns outside words into codes once their lengths pass the cap.
Products, derivations, ``from_terms``, ``_Sum`` and a merge's parent term
store the coefficient of a key they do not hold yet as it comes, or its
negation, and add only onto a key they hold.

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
from typing import Iterable, Mapping, NamedTuple, Sequence

from .scalars import GScalar, ONE, ZERO

Word = tuple[int, ...]
Key = tuple[int, int]  # (code of mu, code of nu): see the module docstring


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


def _check_word_lengths(lengths: Iterable[int]) -> None:
    """CapacityError for a word length of more letters than the cap."""
    for n in lengths:
        if n > _MAX_WORD_LEN:
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

    The public word type: a tuple ``(mu, nu)`` of two words, equal to the
    plain tuple of its words.  Elements key their terms by word codes, and
    build monomials only for their readers.
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


_UNIT: Key = (0, 0)


def monomial(mu: Sequence[int] | str, nu: Sequence[int] | str = ()) -> Monomial:
    return Monomial(_as_word(mu), _as_word(nu))


def _code(word: Iterable[int]) -> int:
    """The base-4 code of a word of letters 1..3 (module docstring)."""
    code = 0
    for letter in word:
        code = code << 2 | letter
    return code


def _len(code: int) -> int:
    """The length of the word of a code."""
    return (code.bit_length() + 1) >> 1


def _shifts(code: int) -> range:
    """The bit of each letter of a code, first letter to last: the first is
    at bit ``(bit_length - 1) & -2``."""
    return range(code.bit_length() - 1 & -2, -1, -2)


def _word(code: int) -> Word:
    """The word of a code: its digits, first to last."""
    return tuple(code >> t & 3 for t in _shifts(code))


def _monomial(key: Key) -> Monomial:
    return Monomial(_word(key[0]), _word(key[1]))


def _times_letters(key: Key, letters: Iterable[Key]) -> Key | None:
    """The key of ``S_mu S_nu^*`` times the letters of a generator run, left
    to right, or None once the product is 0.  A letter is the key ``(j, 0)``
    of S_j or ``(0, k)`` of S_k*.  S_j appends j to mu when nu is empty, and
    otherwise drops nu's first letter when it is j (the product is 0 when it
    is not); S_k* puts k in front of nu.  The word cap is checked after each
    letter on the code that grew: the parser forms the run's first word
    under the same cap, and a word that does not grow stays within it."""
    mu, nu = key
    bits = 2 * _MAX_WORD_LEN
    for j, k in letters:  # S_j is (j, 0) and S_k* is (0, k)
        if k:
            nu |= k << (nu.bit_length() + 1 & -2)  # 2 |nu|
            if nu.bit_length() > bits:
                _check_word_lengths((_len(nu),))  # raises CapacityError
        elif not nu:
            mu = mu << 2 | j
            if mu.bit_length() > bits:
                _check_word_lengths((_len(mu),))
        else:
            t = nu.bit_length() - 1 & -2  # the bit of nu's first letter
            if nu >> t != j:
                return None
            nu -= j << t
    return mu, nu


def _family_coefficient(terms: dict[Key, GScalar], mu: int, nu: int):
    """The coefficient shared by all three children ``(mu.j, nu.j)``, or
    None when the family is not complete."""
    mu, nu = mu << 2, nu << 2
    first = terms.get((mu | 1, nu | 1))
    if (first is None or terms.get((mu | 2, nu | 2)) != first
            or terms.get((mu | 3, nu | 3)) != first):
        return None
    return first


def _collapse(terms: dict[Key, GScalar], seeds: Iterable[Key] | None = None) -> None:
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
        pending = [(mu >> 2, nu >> 2) for mu, nu in terms if mu & 3 == 1 == nu & 3]
    else:
        pending = {(mu >> 2, nu >> 2) for mu, nu in seeds if mu & 3 == nu & 3 != 0}
    # only complete families and the families a merge changes need a visit,
    # by the level |mu| + |nu| of their parent
    levels: dict[int, list[Key]] = {}
    for mu, nu in pending:
        if _family_coefficient(terms, mu, nu) is not None:
            levels.setdefault(_len(mu) + _len(nu), []).append((mu, nu))
    while levels:
        level = max(levels)
        for key in levels.pop(level):
            mu, nu = key
            first = _family_coefficient(terms, mu, nu)
            if first is None:
                continue
            for j in _INDICES:
                del terms[mu << 2 | j, nu << 2 | j]
            old = terms.get(key)
            total = first if old is None else old + first
            if total:
                terms[key] = total
                if mu & 3 == nu & 3 != 0:
                    levels.setdefault(level - 2, []).append((mu >> 2, nu >> 2))
            else:
                del terms[key]


def _ordered(items: Iterable[tuple[Key, GScalar]]) -> list[tuple[Key, GScalar]]:
    """The (key, coefficient) pairs in the display order (|nu|, nu, |mu|, mu)
    of ``Monomial.sort_key``, which is the numeric order of (nu code, mu
    code); only the readers of a sorted element (``terms``, the printer)
    call it."""
    return sorted(items, key=lambda kv: (kv[0][1], kv[0][0]))


class _Sum:
    """A left fold of ``+`` and ``-`` over canonical summands, in one mutable
    dict that starts from the canonical ``start`` (default 0).

    ``add(x, sign)`` leaves the terms of ``acc + x`` (``acc - x`` for a
    negative sign), term cap included, but touches only the keys of ``x``
    and the families they complete.  The lemma in the module docstring says
    why the result is the canonical form exactly.  A summand is an AlgElem
    or a canonical term map (as a derivation returns it); an empty
    accumulator adopts its terms, negated for a negative sign, with no merge
    and no collapse.
    """

    __slots__ = ("terms",)

    def __init__(self, start: "AlgElem | None" = None) -> None:
        self.terms: dict[Key, GScalar] = {} if start is None else dict(start._map)

    def add(self, x: "AlgElem | dict[Key, GScalar]", sign: int = 1) -> None:
        summand = x if isinstance(x, dict) else x._map
        terms = self.terms
        if not terms:
            self.terms = {m: -c for m, c in summand.items()} if sign < 0 else dict(summand)
            _check_term_count(len(self.terms))
            return
        for key, c in summand.items():
            old = terms.get(key)
            if old is None:
                terms[key] = -c if sign < 0 else c
                continue
            total = old - c if sign < 0 else old + c
            if total:
                terms[key] = total
            else:
                del terms[key]
        # a lone key completes a family only when its words end in one letter
        if len(summand) > 1 or (
                summand and (only := next(iter(summand)))[0] & 3 == only[1] & 3 != 0):
            _collapse(terms, summand)
        _check_term_count(len(terms))

    def value(self) -> "AlgElem":
        """The element of the sum, unsorted.  It takes the accumulator's dict
        as it is, so the fold ends here."""
        return AlgElem(self.terms)


class _Record:
    """An immutable record, the base of the package's value classes: what a
    frozen dataclass gives, without importing ``dataclasses``.

    A subclass names its fields in ``__slots__`` (a subclass that adds none
    sets ``__slots__ = ()``), and its ``__init__``, whose parameters are
    named after the fields, checks them and sets each once: through
    ``_Record.__init__``, which takes the values in field order, or, on a
    hot path, through ``object.__setattr__``.  Assigning or deleting an
    attribute afterwards raises AttributeError.  ``==`` holds between records of one class with
    equal field tuples and the hash is that of the field tuple; the repr is
    ``Name(field=value, ...)``.  ``__reduce__`` calls the class on the field
    tuple, so ``copy``, ``deepcopy`` and ``pickle`` rebuild a record through
    its own checks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._values()


class AlgElem(_Record):
    """An algebra element in canonical form.

    It holds its canonical term map (pair of word codes -> nonzero
    coefficient) as its producer built it (a product, a derivation,
    ``from_terms`` or ``_Sum``), and never changes it.  ``terms`` is the
    public view: the map as a tuple of (monomial, coefficient) pairs in the
    display order (|nu|, nu, |mu|, mu), sorted each time it is read.
    Every operation works from the map, so only what is read is sorted.
    Structural equality (``==``) means identical canonical form, whatever
    order the map was built in, and so does the hash; use :meth:`equals`
    for mathematical equality.  It is a ``_Record`` of the one field
    ``_map`` with its own ``==``, hash and repr: attributes cannot be set or
    deleted, and it copies and pickles as its map.
    """

    __slots__ = ("_map",)

    def __init__(self, terms: dict[Key, GScalar]) -> None:
        """The element of a canonical term map, taken as it is: no copy, so
        the caller must not change the map afterwards."""
        _set_map(self, terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    @property
    def terms(self) -> tuple[tuple[Monomial, GScalar], ...]:
        """The (monomial, nonzero coefficient) pairs in display order."""
        return tuple((_monomial(key), c) for key, c in _ordered(self._map.items()))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_terms(mapping: Mapping[Monomial, GScalar | int]) -> "AlgElem":
        """The canonical element of outside terms; every letter and every
        word length is checked, a term with coefficient 0 included.

        The keys of a mapping are distinct, and distinct checked words have
        distinct codes, so no key repeats and nothing is merged: the map
        holds the nonzero terms in the mapping's order, then complete
        families collapse and the term cap is checked.  Keys that are
        distinct objects with equal words, such as two word types, are a
        ValueError."""
        for m in mapping:
            for letter in itertools.chain(m.mu, m.nu):
                _index(letter, _NOT_A_LETTER)
        pairs = [(m, GScalar.of(c)) for m, c in mapping.items()]
        # lengths before codes: coding a word takes time quadratic in its length
        _check_word_lengths(len(w) for m, _ in pairs for w in m)
        # 0 is the one reduced triple; tuples compare in C
        terms = {(_code(m.mu), _code(m.nu)): c for m, c in pairs if c != ZERO}
        if len(terms) != sum(c != ZERO for _, c in pairs):
            raise ValueError("two keys of the mapping name one monomial")
        _collapse(terms)
        _check_term_count(len(terms))
        return AlgElem(terms)

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
        return AlgElem({(i, 0): ONE})

    # -- views --------------------------------------------------------------

    def term_map(self) -> dict[Monomial, GScalar]:
        """The canonical term map by monomial, in no particular order."""
        return {_monomial(key): c for key, c in self._map.items()}

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
        """The product, in one loop over the pairs of terms.  A pair whose
        prefixes match forms its key (module docstring) and merges into the
        product's map at once: it adds onto a key held and deletes a key
        whose sum is 0 (a product of two nonzero coefficients is never a
        fresh 0).  Complete families then collapse.
        Each word formed, also one whose coefficients cancel, passes the
        word cap, on both words of the key, since a factor may come from a
        larger cap; so an over-long word raises ``CapacityError`` as soon
        as it is formed."""
        if not isinstance(other, AlgElem):
            return self.__rmul__(other)  # a scalar is central
        right = [(mu2.bit_length() + 1 & -2, mu2, nu2, cb)  # 2 |mu2| first
                 for (mu2, nu2), cb in other._map.items()]
        bits = 2 * _MAX_WORD_LEN
        terms: dict[Key, GScalar] = {}
        for (mu, nu), ca in self._map.items():
            n = nu.bit_length() + 1 & -2  # 2 |nu|
            for m, mu2, nu2, cb in right:
                if m >= n:
                    if mu2 >> m - n != nu:
                        continue
                    key = (mu2 + (mu - nu << m - n), nu2)  # mu, then mu2 after nu
                elif nu >> n - m == mu2:
                    key = (mu, nu + (nu2 - mu2 << n - m))  # nu2, then nu after mu2
                else:
                    continue
                if (key[0] | key[1]).bit_length() > bits:
                    _check_word_lengths(map(_len, key))  # raises CapacityError
                c = ca * cb
                if (old := terms.get(key)) is None:
                    terms[key] = c
                elif (c := old + c) != ZERO:
                    terms[key] = c
                else:
                    del terms[key]
        _collapse(terms)
        _check_term_count(len(terms))
        return AlgElem(terms)

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
        return AlgElem({(nu, mu): c.conjugate() for (mu, nu), c in self._map.items()})

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
        code, out = _code(word), {}
        for (mu, nu), c in self._map.items():
            s = 2 * (len(word) - _len(nu))
            if s >= 0 and code >> s == nu:
                img = mu << s | code & ((1 << s) - 1)
                total = out.get(img, ZERO) + c
                if total:
                    out[img] = total
                else:
                    del out[img]
        return {_word(img): c for img, c in out.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{m!r}: {c!r}" for m, c in self.terms)
        return f"AlgElem({{{inner}}})"


# the slot's own setter: ``_Record.__setattr__`` refuses every assignment
_set_map = AlgElem._map.__set__
