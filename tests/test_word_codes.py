"""Words as base-4 codes in the term map: the code arithmetic on every short
word, the cap boundary in bits, and every term-map kernel against the
tuple-word oracle of ``tests/support.py``, at the default word cap and past
32 letters under a raised one."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import AlgElem, CapacityError, Monomial, OneForm, algebra, get_caps, set_caps
from cuntzgeo.algebra import _code, _word
from cuntzgeo.calculus import d0, d1, derive
from cuntzgeo.scalars import ONE

from support import (
    nonzero_gscalars,
    tuple_canonical,
    tuple_d1,
    tuple_derive,
    tuple_equals,
    tuple_product,
    tuple_sum,
)

# every word of up to 7 letters, shortest first
_WORDS = [w for n in range(8) for w in itertools.product((1, 2, 3), repeat=n)]


def test_codes_of_every_short_word():
    """The code of a word round-trips, gives its length from its bit length,
    its last letter from its low digit, and appending or dropping a letter
    by a shift; u is a prefix of w exactly when w shifted right by twice the
    length difference is u, and the rest of w is the low bits."""
    assert len(_WORDS) == 3280
    codes = set()
    for w in _WORDS:
        code = _code(w)
        assert _word(code) == w and code not in codes
        codes.add(code)
        assert (code.bit_length() + 1) >> 1 == len(w)
        for j in (1, 2, 3):
            assert _word(code << 2 | j) == w + (j,)
        if w:
            assert code & 3 == w[-1] and _word(code >> 2) == w[:-1]
        for k in range(len(w) + 1):
            shift = 2 * (len(w) - k)
            assert code >> shift == _code(w[:k])
            assert _word(code & ((1 << shift) - 1)) == w[k:]
    short = [w for w in _WORDS if len(w) <= 4]
    for u, w in itertools.product(short, repeat=2):
        prefix = len(u) <= len(w) and _code(w) >> 2 * (len(w) - len(u)) == _code(u)
        assert prefix == (w[:len(u)] == u)


def test_terms_are_in_sort_key_order_for_every_short_word():
    """Numeric order of (nu code, mu code) is the order of
    ``Monomial.sort_key``; distinct coefficients keep every family from
    collapsing, so every monomial is a term."""
    shuffled = _WORDS[:]
    random.Random(5).shuffle(shuffled)
    monos = {Monomial(w, ()) for w in _WORDS} | {Monomial((), w) for w in _WORDS}
    monos |= {Monomial(w, v) for w, v in zip(_WORDS, shuffled)}
    x = AlgElem.from_terms({m: k + 1 for k, m in enumerate(monos)})
    assert [m for m, _ in x.terms] == sorted(monos, key=Monomial.sort_key)


@pytest.mark.parametrize("cap", [16, 40])
def test_the_word_cap_boundary(cap):
    """A word of n letters has 2n - 1 bits when it starts with 1 and 2n when
    it starts with 3: a product word of exactly the cap's letters is kept,
    and one letter more is the CapacityError of the cap, in mu and in nu, as
    it is for a word that comes in through ``from_terms``."""
    saved = get_caps()
    try:
        set_caps(max_word_len=cap)
        message = f"word length exceeds cap {cap} (raise it via set_caps)"
        for letter in (1, 3):
            s = AlgElem.generator(letter)
            x = AlgElem.from_terms({Monomial((letter,) * (cap - 1), ()): 1})
            full = x * s
            assert full.terms == ((Monomial((letter,) * cap, ()), ONE),)
            assert full.adjoint().terms == ((Monomial((), (letter,) * cap), ONE),)
            for over in (lambda: full * s, lambda: full.adjoint() * s.adjoint(),
                         lambda: AlgElem.from_terms({Monomial((), (letter,) * (cap + 1)): 1})):
                with pytest.raises(CapacityError, match=re.escape(message)):
                    over()
    finally:
        set_caps(*saved)


def test_an_over_long_outside_word_is_refused_before_it_is_coded(monkeypatch):
    """Coding a word takes time quadratic in its length, so ``from_terms``
    tests the letter counts first: a word of 10^5 letters is the cap's
    CapacityError, in mu and in nu, and no word of the mapping is coded."""
    def no_code(word):
        raise AssertionError("a word was coded before the length check")

    monkeypatch.setattr(algebra, "_code", no_code)
    long = (2,) * 10**5
    for m in (Monomial(long, ()), Monomial((1,), long)):
        with pytest.raises(CapacityError, match="word length exceeds cap 16 "):
            AlgElem.from_terms({Monomial((3,), (1,)): 1, m: 1})


# -- the term-map kernels against the tuple-word oracle ------------------------

def _letters(min_size=0, max_size=2):
    return st.lists(st.integers(1, 3), min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def _stemmed_maps(draw, stem_len: tuple[int, int], depth: int):
    """Two raw term maps whose words are a stem (the empty word or one of two
    long ones) and up to two letters, so that products often match
    prefixes.  Some terms are split into their families to ``depth``
    levels, with one child's coefficient sometimes changed, so that
    ``from_terms`` merges complete families and cascades."""
    stems = [()] + draw(st.lists(_letters(*stem_len), min_size=1, max_size=2))
    word = st.builds(lambda stem, tail: stem + tail, st.sampled_from(stems), _letters())
    rng = draw(st.randoms(use_true_random=False))
    maps = []
    for _ in range(2):
        raw = {}
        for m, c in draw(st.dictionaries(st.builds(Monomial, word, word),
                                         nonzero_gscalars, max_size=4)).items():
            pieces = [m]
            for _ in range(rng.randint(0, depth)):
                pieces = [Monomial(p.mu + (j,), p.nu + (j,)) for p in pieces for j in (1, 2, 3)]
            for k, piece in enumerate(pieces):
                raw[piece] = raw.get(piece, 0) + (c + 1 if k == 0 and rng.random() < 0.2 else c)
        maps.append(raw)
    return maps


def _check(value, oracle_map: dict) -> None:
    assert value.term_map() == oracle_map
    assert value.terms == tuple(sorted(oracle_map.items(), key=lambda kv: kv[0].sort_key()))


def _agree(build, oracle) -> None:
    """build() and oracle() agree: equal maps or equal lists of maps, or
    the same CapacityError."""
    try:
        expected = oracle()
    except CapacityError as exc:
        with pytest.raises(CapacityError, match=re.escape(str(exc))):
            build()
        return
    value = build()
    if isinstance(expected, list):
        assert len(value.c) == len(expected)
        for a, e in zip(value.c, expected):
            _check(a, e)
    else:
        _check(value, expected)


def _against_the_oracle(raw_x: dict, raw_y: dict, i: int) -> None:
    x, y = AlgElem.from_terms(raw_x), AlgElem.from_terms(raw_y)
    X, Y = x.term_map(), y.term_map()
    _check(x, tuple_canonical(raw_x.items()))
    _check(y, tuple_canonical(raw_y.items()))
    _agree(lambda: x * y, lambda: tuple_product(X, Y))
    _agree(lambda: y * x, lambda: tuple_product(Y, X))
    _agree(lambda: x + y, lambda: tuple_sum(dict(X), Y))
    _agree(lambda: x - y, lambda: tuple_sum(dict(X), Y, -1))
    _check(x.adjoint(), {Monomial(m.nu, m.mu): c.conjugate() for m, c in X.items()})
    # one-term summands: the last member of a split family completes it
    acc, expected = AlgElem.zero(), {}
    for m, c in raw_x.items():
        acc = acc + AlgElem.from_terms({m: c})
        expected = tuple_sum(expected, tuple_canonical([(m, c)]))
    _check(acc, expected)
    _agree(lambda: derive(i, x), lambda: tuple_derive(i, X))
    _agree(lambda: d0(y), lambda: [tuple_derive(k, Y) for k in (1, 2, 3)])
    _agree(lambda: d1(x * d0(y)),
           lambda: tuple_d1([tuple_product(X, tuple_derive(k, Y)) for k in (1, 2, 3)]))
    _agree(lambda: d1(OneForm.of(x, y, x)), lambda: tuple_d1([X, Y, X]))
    assert x.equals(y) == tuple_equals(X, Y)
    # 1 + S_1 S_1^* and 2 S_1 S_1^* + S_2 S_2^* + S_3 S_3^* at every term of x:
    # different canonical forms of one element
    for m, c in X.items():
        if max(len(m.mu), len(m.nu)) == get_caps()[0]:
            continue
        child = {Monomial(m.mu + (j,), m.nu + (j,)): c for j in (1, 2, 3)}
        one = tuple_sum(dict(X), {Monomial(m.mu + (1,), m.nu + (1,)): ONE})
        child[Monomial(m.mu + (1,), m.nu + (1,))] = c + ONE
        other = tuple_sum(tuple_sum(dict(X), {m: c}, -1), tuple_canonical(child.items()))
        a, b = AlgElem.from_terms(one), AlgElem.from_terms(other)
        assert a.equals(b) and b.equals(a) and tuple_equals(one, other)


@given(_stemmed_maps((10, 12), 2), st.sampled_from((1, 2, 3)))
@settings(max_examples=150, deadline=None)
def test_kernels_match_the_tuple_word_oracle_at_the_default_cap(maps, i):
    """Words of up to 16 letters, the default cap: products over it raise."""
    assert get_caps()[0] == 16
    _against_the_oracle(*maps, i)


@given(_stemmed_maps((31, 36), 2), st.sampled_from((1, 2, 3)))
@settings(max_examples=60, deadline=None)
def test_kernels_match_the_tuple_word_oracle_past_32_letters(maps, i):
    """Words of up to 40 letters under a raised cap, codes of up to 80 bits."""
    saved = get_caps()
    try:
        set_caps(max_word_len=40)
        _against_the_oracle(*maps, i)
    finally:
        set_caps(*saved)
