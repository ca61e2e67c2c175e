"""Normal forms, products, adjoints, equality and the word-tree oracle."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import (
    AlgElem,
    CapacityError,
    Monomial,
    OneForm,
    TensorElem,
    TwoForm,
    get_caps,
    monomial,
    set_caps,
)
import cuntzgeo
from cuntzgeo.algebra import _Sum, _ordered
from cuntzgeo.calculus import d0, d1, derive
from cuntzgeo.scalars import GScalar, ONE, ZERO, rational

from support import (
    alg_elems,
    caps,
    code_key,
    merge_pairs,
    random_elem,
    random_gscalar,
    random_word,
    reference_sum,
    small_alg_elems,
    split_terms,
    tuple_canonical,
    words_of_length,
)

S1 = AlgElem.generator(1)
S2 = AlgElem.generator(2)
S3 = AlgElem.generator(3)
UNIT = AlgElem.unit()


def test_cuntz_relations():
    for s in (S1, S2, S3):
        assert s.adjoint() * s == UNIT
    assert S1.adjoint() * S2 == AlgElem.zero()
    total = S1 * S1.adjoint() + S2 * S2.adjoint() + S3 * S3.adjoint()
    assert total == UNIT  # collapses in the canonical form already


def test_product_prefix_rules():
    # nu a prefix of mu': the overhang moves to the left word
    a = AlgElem.from_terms({monomial((1,), (2,)): 1})        # S1 S2*
    b = AlgElem.from_terms({monomial((2, 3), (1, 1)): 1})    # S2 S3 S1* S1*
    assert a * b == AlgElem.from_terms({monomial((1, 3), (1, 1)): 1})
    # mu' a prefix of nu: the overhang moves to the right word
    c = AlgElem.from_terms({monomial((1,), (2, 3)): 1})      # S1 S3* S2*
    d = AlgElem.from_terms({monomial((2,), ()): 1})          # S2
    assert c * d == AlgElem.from_terms({monomial((1,), (3,)): 1})
    # no prefix relation: the product vanishes
    e = AlgElem.from_terms({monomial((), (1,)): 1})
    assert e * d == AlgElem.zero()


def test_full_sum_collapse_example():
    # S2 S1 S1* S3* + S2 S2 S2* S3* + S2 S3 S3* S3*  ->  S2 S3*
    x = AlgElem.from_terms({
        monomial((2, 1), (3, 1)): 1,
        monomial((2, 2), (3, 2)): 1,
        monomial((2, 3), (3, 3)): 1,
    })
    assert x == AlgElem.from_terms({monomial((2,), (3,)): 1})


def test_collapse_cascades_two_levels():
    # expand the unit twice over the first letter, then all the way down
    terms = {}
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            terms[monomial((j, k), (j, k))] = 1
    assert AlgElem.from_terms(terms) == UNIT


def test_collapse_requires_equal_coefficients():
    terms = {
        monomial((1,), (1,)): 1,
        monomial((2,), (2,)): 1,
        monomial((3,), (3,)): rational(1, 2),
    }
    x = AlgElem.from_terms(terms)
    assert len(x.terms) == 3


def test_equals_vs_structural():
    assert not (S1 * S1.adjoint()).equals(UNIT)
    x = S1 * S1.adjoint() + S2 * S2.adjoint()
    y = UNIT - S3 * S3.adjoint()
    assert x.equals(y)
    assert x != y  # canonical forms differ even though the elements agree
    # the canonical form depends on the order of the additions:
    # (S1S1S1*S1* + S1S2S2*S1* + S1S3S3*S1*) - S1S1S1*S1* folds to
    # S1S1* - S1S1S1*S1*; the four summands in one map give S1S2S2*S1* + S1S3S3*S1*
    terms = {monomial((1, j), (1, j)): 1 for j in (1, 2, 3)}
    fold = AlgElem.from_terms(terms) - AlgElem.from_terms({monomial((1, 1), (1, 1)): 1})
    terms[monomial((1, 1), (1, 1))] -= 1
    batch = AlgElem.from_terms(terms)
    assert fold == AlgElem.from_terms({monomial((1,), (1,)): 1, monomial((1, 1), (1, 1)): -1})
    assert batch == AlgElem.from_terms({monomial((1, 2), (1, 2)): 1, monomial((1, 3), (1, 3)): 1})
    assert fold != batch
    assert fold.equals(batch)


def test_equals_with_scalar():
    assert (S1.adjoint() * S1).equals(1)
    assert not S1.equals(0)


def test_equals_with_forms_and_tensors_is_false_both_ways():
    for x in (UNIT, AlgElem.zero()):
        for other in (OneForm.zero(), OneForm.basis(1), TwoForm.zero(), TensorElem.zero(2)):
            assert x.equals(other) is False and other.equals(x) is False
        for other in (1.5, "S1"):
            with pytest.raises(TypeError):
                x.equals(other)


def test_scalar_mixing():
    half_i = GScalar.of(0, 1) * rational(1, 2)
    x = S1.scale(half_i)
    assert (x.adjoint() * x).equals(rational(1, 4))


def test_adjoint_examples():
    x = AlgElem.from_terms({monomial((2, 1), (3,)): GScalar.of(0, 1)})
    assert x.adjoint() == AlgElem.from_terms(
        {monomial((3,), (2, 1)): GScalar.of(0, -1)})


def test_tree_action_examples():
    x = AlgElem.from_terms({monomial((1,), (2,)): 1})  # S1 S2*
    assert x.tree_action("23") == {(1, 3): ONE}
    assert x.tree_action("3") == {}
    # the unit acts as the identity on every word
    assert UNIT.tree_action("12") == {(1, 2): ONE}


def test_tree_action_word_validation():
    with pytest.raises(ValueError):
        UNIT.tree_action((4,))


@pytest.mark.parametrize("mono", [monomial((0,)), monomial((4,)),
                                  monomial((1,), (4,)), monomial((1, 0), (2,)),
                                  Monomial((True,), ()), Monomial((1,), (2.0,))])
def test_letters_outside_the_alphabet_are_rejected(mono):
    with pytest.raises(ValueError, match="outside alphabet"):
        AlgElem.from_terms({mono: 1})


def test_words_are_not_converted_to_ints():
    # a letter is checked where it enters an element, and never truncated
    assert monomial([1.7]) == Monomial((1.7,), ())
    assert monomial("12", [3]) == Monomial((1, 2), (3,))
    with pytest.raises(ValueError, match="letter 1.7 outside alphabet"):
        AlgElem.from_terms({monomial([1.7]): 1})
    for word in ([1.5], (1, True), [2.0]):
        with pytest.raises(ValueError, match="outside alphabet"):
            S1.tree_action(word)


def test_digit_strings_are_ascii():
    # a string word is read digit by digit, 0-9 only: int() would read the
    # Arabic-Indic digit three as the letter 3
    assert monomial("4") == Monomial((4,), ())
    assert monomial("", "") == Monomial((), ())
    for word in ("\u0663", "1\u0663", "\uff13", "1a", "1 2", "-1"):
        with pytest.raises(ValueError, match="outside alphabet 1..3"):
            monomial(word)
        with pytest.raises(ValueError, match="outside alphabet 1..3"):
            monomial((), word)
        with pytest.raises(ValueError, match="outside alphabet 1..3"):
            S1.tree_action(word)
    with pytest.raises(ValueError, match="letter 4 outside alphabet"):
        AlgElem.from_terms({monomial("4"): 1})


@pytest.mark.parametrize("i", [0, 4])
def test_generator_index_is_checked(i):
    with pytest.raises(ValueError, match="outside 1..3"):
        AlgElem.generator(i)


@pytest.mark.parametrize("i", [True, False, 1.0, "1"])
def test_generator_index_is_an_int(i):
    with pytest.raises(ValueError, match="outside 1..3"):
        AlgElem.generator(i)


@pytest.mark.parametrize("value", [True, 1.5, 16.0, "16"])
def test_caps_are_ints(value):
    old = get_caps()
    with caps():
        for name in ("max_word_len", "max_terms"):
            with pytest.raises(ValueError, match="positive int"):
                set_caps(**{name: value})
        assert get_caps() == old


def test_caps_word_length():
    with caps(max_word_len=4):
        x = S1 * S1 * S1 * S1
        with pytest.raises(CapacityError):
            _ = x * S1


def test_caps_word_length_of_cancelled_products():
    """A product checks every word it forms, even one whose coefficients
    cancel: both terms of x make S1^5 from y, with opposite signs."""
    x = cuntzgeo.parse_alg("S1 S1 - S1 S1 S1 S1*")
    y = cuntzgeo.parse_alg("S1 S1 S1")
    assert (x * y).is_zero()
    with caps(max_word_len=4):
        with pytest.raises(CapacityError, match="word length exceeds cap 4"):
            _ = x * y


def test_caps_both_words_of_every_product():
    """A factor built under a larger cap passes its long word on unchanged:
    1 * y and y * 1 grow no word, and S2 S2* * y grows the other one, yet
    each product forms a word over the lower cap."""
    with caps(max_word_len=20):
        y = cuntzgeo.parse_alg("S1* " * 17)
    with caps(max_word_len=16):
        for x, z in ((AlgElem.unit(), y), (y, AlgElem.unit()),
                     (cuntzgeo.parse_alg("S2 S2*"), y)):
            with pytest.raises(CapacityError, match="word length exceeds cap 16"):
                _ = x * z


def test_an_element_is_not_equal_to_an_int():
    # == compares two elements' canonical forms; for an int operand it
    # returns NotImplemented, so only equals compares with a scalar
    assert (AlgElem.unit() == 3) is False
    assert (AlgElem.unit() == 1) is False and AlgElem.unit().equals(1)


def test_tree_action_drops_images_that_cancel():
    # 1 and S1 S1* both send the word 1 to itself, with opposite signs
    assert (1 - cuntzgeo.parse_alg("S1 S1*")).tree_action("1") == {}


def test_deep_nu_is_decided_within_caps():
    # a shallow term spread to the deep nu-length would be 3^depth terms,
    # beyond the default cap of 100,000
    for depth in (11, 16):
        x = AlgElem.from_terms({
            monomial(()): 1,
            monomial((1,)): 2,
            monomial((2,), (3,)): rational(-1, 2),
            monomial((1, 2), (1,) * depth): GScalar.of(0, 1),
        })
        assert not x.equals(0)
    with caps(max_terms=10):
        long_nu = AlgElem.from_terms({monomial((), (1, 1, 1)): 1})
        assert not UNIT.equals(long_nu)


# -- properties --------------------------------------------------------------

@given(alg_elems, alg_elems)
def test_adjoint_antihomomorphism(x, y):
    assert (x * y).adjoint().equals(y.adjoint() * x.adjoint())
    assert x.adjoint().adjoint() == x


@given(alg_elems, alg_elems, alg_elems)
@settings(max_examples=50)
def test_associativity_and_distributivity(x, y, z):
    assert ((x * y) * z).equals(x * (y * z))
    assert (x * (y + z)).equals(x * y + x * z)


@given(alg_elems)
def test_normalize_idempotent(x):
    assert AlgElem.from_terms(dict(x.terms)) == x


@pytest.mark.parametrize("seed", range(3))
def test_from_terms_keeps_the_mapping_order(seed):
    """``from_terms`` merges nothing, because no key can repeat: a mapping's
    keys are distinct, and a Monomial equals and hashes as the tuple of its
    words, so a mapping holds one key per word pair.  When no family
    completes, the element's map is the mapping's nonzero terms in the
    mapping's order."""
    one = {monomial((1,), ()): 1, ((1,), ()): 2}
    assert list(one.items()) == [(monomial((1,), ()), 2)]
    rng = random.Random(seed)
    kept = 0
    for _ in range(200):
        mapping = {}
        for _ in range(rng.randint(0, 8)):
            m = Monomial(random_word(rng), random_word(rng))
            mapping[m] = random_gscalar(rng) if rng.random() < 0.8 else ZERO
        nonzero = [(m, c) for m, c in mapping.items() if c != ZERO]
        if tuple_canonical(nonzero).keys() != dict(nonzero).keys():
            continue  # a family completed
        kept += 1
        assert list(AlgElem.from_terms(mapping).term_map().items()) == nonzero
    assert kept >= 150


def test_from_terms_rejects_two_keys_of_one_monomial():
    """Keys that are distinct objects with the same words, such as a word
    given as bytes beside the same word as a tuple, would share a term: a
    ValueError, not a silent choice of one coefficient."""
    for other in (Monomial(b"\x01", ()), Monomial(range(1, 2), ())):
        with pytest.raises(ValueError, match="^two keys of the mapping name one monomial$"):
            AlgElem.from_terms({other: 1, monomial((1,), ()): 1})
    # a zero coefficient on one of them leaves one term
    assert AlgElem.from_terms({Monomial(b"\x01", ()): 0, monomial((1,), ()): 1}) == S1


def test_make_adds_repeated_monomials():
    """Making an element of repeated monomials: ``merge_pairs`` adds their
    coefficients before ``from_terms`` collapses.  A cancelling pair merges
    to a 0 coefficient, which ``from_terms`` drops, and the family of S1
    completes only once the two halves of S1 S1 S1* are merged."""
    half = rational(1, 2)
    pairs = [(monomial("1", "2"), ONE), (monomial("11", "1"), half),
             (monomial("12", "2"), ONE), (monomial("1", "2"), -ONE),
             (monomial("13", "3"), ONE), (monomial("11", "1"), half)]
    merged = merge_pairs(pairs)
    assert merged[monomial("1", "2")] == ZERO
    made = AlgElem.from_terms(merged)
    assert made == S1 and made.term_map() == tuple_canonical(pairs)


@pytest.mark.parametrize("seed", range(3))
def test_make_equals_from_terms_of_the_merged_pairs(seed):
    """Pieces of x split through sum_j S_j S_j^* = 1, some of them cut in
    two halves, in shuffled order beside pairs that cancel: ``from_terms``
    of the hand-merged terms gives the tuple-word oracle's canonical form of
    the pairs, and that is x."""
    rng = random.Random(seed)
    for _ in range(100):
        x = random_elem(rng)
        pairs = []
        for m, c in split_terms(x, rng):
            if rng.random() < 0.5:
                part = random_gscalar(rng)
                pairs += [(m, part), (m, c - part)]
            else:
                pairs.append((m, c))
            if rng.random() < 0.2:
                d = random_gscalar(rng, nonzero=True)
                other = Monomial(random_word(rng), random_word(rng))
                pairs += [(other, d), (other, -d)]
        rng.shuffle(pairs)
        made = AlgElem.from_terms(merge_pairs(pairs))
        assert made.term_map() == tuple_canonical(pairs)
        assert made.equals(x)


@given(alg_elems, alg_elems)
@settings(max_examples=100)
def test_equality_agrees_with_tree_oracle(x, y):
    level = max((len(m.nu) for m, _ in (x - y).terms), default=0)
    oracle = all(
        x.tree_action(w) == y.tree_action(w)
        for w in words_of_length(level + 1)
    )
    assert x.equals(y) == oracle


@given(small_alg_elems, st.randoms(use_true_random=False))
def test_constructed_equal_pairs(x, rng):
    """Splitting terms through sum_j S_j S_j^* = 1 to uneven depths and
    adding the pieces back one at a time, in shuffled order, must not change
    the element, whatever canonical form the fold ends in."""
    pieces = [AlgElem.from_terms({m: c}) for m, c in split_terms(x, rng)]
    rng.shuffle(pieces)
    y = sum(pieces, AlgElem.zero())
    assert x.equals(y) and y.equals(x)
    level = max((len(m.nu) for m, _ in x.terms + y.terms), default=0)
    assert all(x.tree_action(w) == y.tree_action(w)
               for w in words_of_length(level + 1))


def _child(m, j):
    return Monomial(m.mu + (j,), m.nu + (j,))


@given(small_alg_elems, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_sum_is_the_left_fold(x, rng):
    """The accumulator, and + and - (which fold through it), give the
    merge-then-canonicalize sum exactly, prefix by prefix, on summands that
    complete families and then break some of them again.  For some terms one
    summand completes a family and the family of one of its members at
    once."""
    pieces = split_terms(x, rng)
    rng.shuffle(pieces)
    pieces += [(m, -c) for m, c in rng.sample(pieces, rng.randint(0, len(pieces)))]
    chunks = []
    while pieces:
        k = rng.randint(1, 4)
        chunks.append(pieces[:k])
        pieces = pieces[k:]
    for m, c in x.terms:
        if rng.random() < 0.5:
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            member, f = _child(m, j), c * rng.choice((1, 2, -1))
            for piece in ([(_child(m, i), c) for i in (1, 2, 3) if i != j]
                          + [(_child(member, i), f) for i in (1, 2, 3) if i != k]):
                chunks.insert(rng.randint(0, len(chunks)), [piece])
            chunks.append([(member, c), (_child(member, k), f)])
    acc, fold, ref = _Sum(), AlgElem.zero(), AlgElem.zero()
    for chunk in chunks:
        sign = rng.choice((1, -1))
        summand = sum((AlgElem.from_terms({m: sign * c}) for m, c in chunk),
                      AlgElem.zero())
        acc.add(summand, sign)
        fold = fold - summand if sign < 0 else fold + summand
        ref = reference_sum(ref, summand, sign)
        assert acc.value() == fold == ref


def test_nested_families_merge_deepest_first():
    """A family and the family of its parent complete in one step: the deeper
    merges first, and terms elsewhere do not change the outcome."""
    before = AlgElem.from_terms({monomial("2", "2"): 1, monomial("3", "3"): 1,
                                 monomial("11", "11"): 1, monomial("12", "12"): 1})
    step = AlgElem.from_terms({monomial("1", "1"): 1, monomial("13", "13"): 1})
    merged = {monomial("1", "1"): rational(2), monomial("2", "2"): ONE,
              monomial("3", "3"): ONE}
    assert (before + step).term_map() == merged
    other = AlgElem.from_terms({monomial("231", "1"): 7})
    with_other = {**merged, monomial("231", "1"): rational(7)}
    assert (before + other + step).term_map() == with_other
    acc = _Sum()
    for summand in (other, before, step):
        acc.add(summand)
    assert acc.value().term_map() == with_other
    # the same terms in one mapping: from_terms's collapse from every term
    terms = {**before.term_map(), **step.term_map()}
    assert AlgElem.from_terms(terms).term_map() == merged
    assert AlgElem.from_terms({**terms, **other.term_map()}).term_map() == with_other


def test_monomial_is_a_tuple_of_its_words():
    """Monomial hashes as the tuple of its words (as the frozen dataclass it
    replaced did) and keeps its order, adjoint, unit test, repr and export."""
    m = monomial("12", "3")
    assert m == ((1, 2), (3,)) and (m.mu, m.nu) == ((1, 2), (3,))
    assert hash(m) == hash(((1, 2), (3,)))
    assert repr(m) == "Monomial((1, 2), (3,))"
    assert m.adjoint() == Monomial((3,), (1, 2)) and type(m.adjoint()) is Monomial
    assert Monomial((), ()).is_unit and not m.is_unit and not monomial("", "1").is_unit
    ordered = [monomial("", ""), monomial("2", ""), monomial("11", ""),
               monomial("", "1"), monomial("3", "1"), monomial("", "2"),
               monomial("1", "11")]
    shuffled = ordered[:]
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled, key=Monomial.sort_key) == ordered
    assert cuntzgeo.Monomial is Monomial and "Monomial" in cuntzgeo.__all__


_words = st.lists(st.integers(1, 3), max_size=6).map(tuple)


@given(st.lists(st.builds(Monomial, _words, _words), unique=True, max_size=40))
@settings(max_examples=200)
def test_display_order_is_the_sort_key_order(monos):
    """``_ordered`` sorts the term-map keys, pairs of word codes, by (nu code,
    mu code); the order is that of ``Monomial.sort_key``, for words of every
    length."""
    pairs = [(code_key(m), ONE) for m in monos]
    of_key = {code_key(m): m for m in monos}
    assert [of_key[key] for key, _ in _ordered(pairs)] == sorted(monos, key=Monomial.sort_key)


@pytest.fixture
def scalar_additions(monkeypatch):
    """A one-item list counting GScalar.__add__ and __sub__ calls."""
    count = [0]
    for name in ("__add__", "__sub__"):
        def counting(self, other, _original=getattr(GScalar, name)):
            count[0] += 1
            return _original(self, other)
        monkeypatch.setattr(GScalar, name, counting)
    return count


def test_fresh_keys_take_no_scalar_additions(scalar_additions):
    """An accumulator stores the coefficient of a key it does not hold yet
    as it comes, or its negation, instead of computing 0 + c or 0 - c."""
    words = itertools.product(["1", "23", "312"], ["", "2", "13", "321"])
    summands = [AlgElem.from_terms({monomial(mu, nu): k + 1})
                for k, (mu, nu) in enumerate(words)]
    term = AlgElem.from_terms({monomial("123", "21"): rational(2, 3)})
    x = AlgElem.from_terms({monomial("1"): 1, monomial("2"): 2})
    y = AlgElem.from_terms({monomial("3"): 3, monomial("", "1"): 5})
    scalar_additions[0] = 0

    acc = _Sum()
    for k, summand in enumerate(summands):
        acc.add(summand, 1 if k % 2 else -1)
    assert len(acc.value().terms) == len(summands)
    assert scalar_additions[0] == 0

    for i in (1, 2, 3):
        # one letter replaced per image, so a single term's images differ
        assert len(derive(i, term).terms) == 3 + (i == 3)
    assert scalar_additions[0] == 0

    assert len((x * y).terms) == 4
    assert scalar_additions[0] == 0

    # a complete family merges into a parent the terms do not hold
    family = {monomial(f"1{j}", f"3{j}"): 7 for j in "123"}
    assert AlgElem.from_terms(family).term_map() == {monomial("1", "3"): rational(7)}
    assert scalar_additions[0] == 0


@pytest.fixture
def scalar_negations(monkeypatch):
    """A one-item list counting GScalar.__neg__ calls."""
    count = [0]

    def counting(self, _original=GScalar.__neg__):
        count[0] += 1
        return _original(self)

    monkeypatch.setattr(GScalar, "__neg__", counting)
    return count


def test_subtraction_builds_no_negated_copy(scalar_negations):
    """x - y subtracts y's coefficients in place, so x - x cancels every term
    without negating one, and so does the fold of x.equals(y) when y's keys
    are x's; forms and tensors subtract entry by entry the same way."""
    x = AlgElem.from_terms({monomial("12", "3"): rational(2, 3), monomial("", "1"): 5,
                            monomial("2"): GScalar.of(1, -1)})
    y = AlgElem.from_terms({monomial("12", "3"): rational(2, 3), monomial("", "1"): 5})
    omega = OneForm.of(x, 0, x * S2)
    t = TensorElem.from_entries(2, {(1, 2): x, (3, 1): x.adjoint()})
    scalar_negations[0] = 0
    assert x.equals(x) and omega.equals(omega) and t.equals(t)
    assert not x.equals(y) and not omega.equals(OneForm.of(y, 0, x * S2))
    assert (x - x).is_zero() and (omega - omega).is_zero() and (t - t).is_zero()
    assert scalar_negations[0] == 0


@pytest.mark.parametrize("sign", [1, 0, -1])
def test_an_empty_accumulator_adopts_the_summand(sign):
    """The first summand is taken as it is, negated only for a negative
    sign: the parser passes 0 for an unsigned first summand."""
    x = AlgElem.from_terms({monomial("12", "3"): rational(2, 3), monomial("2"): 5})
    acc = _Sum()
    acc.add(x, sign)
    assert acc.value() == (-x if sign < 0 else x)
    acc = _Sum()
    acc.add({code_key(m): c for m, c in x.term_map().items()}, sign)
    assert acc.value() == (-x if sign < 0 else x)


def test_equals_of_distinct_canonical_forms():
    """Canonical forms are not unique, so equals folds the difference when
    the terms differ: 2 S1S1* + S2S2* + S3S3* is 1 + S1S1*."""
    proj = {j: monomial(j, j) for j in "123"}
    one_plus = AlgElem.from_terms({Monomial((), ()): 1, proj["1"]: 1})
    assert len(one_plus.terms) == 2
    for coeffs, equal in (((2, 1, 1), True), ((2, 1, 2), False)):
        x = AlgElem.from_terms({proj[j]: c for j, c in zip("123", coeffs)})
        assert len(x.terms) == 3 and x != one_plus
        assert x.equals(one_plus) is equal and one_plus.equals(x) is equal
        assert OneForm.of(0, x, S1).equals(OneForm.of(0, one_plus, S1)) is equal


def test_seeded_oracle_agreement_counts():
    rng = random.Random(7)
    for _ in range(100):
        x, y = random_elem(rng), random_elem(rng)
        level = max((len(m.nu) for m, _ in (x - y).terms), default=0)
        oracle = all(
            x.tree_action(w) == y.tree_action(w)
            for w in words_of_length(level + 1)
        )
        assert x.equals(y) == oracle


# -- the order of an element's term map ----------------------------------------

def _built_in_two_orders(x: AlgElem, seed: int) -> tuple[AlgElem, AlgElem]:
    """x's terms through from_terms in a shuffled order and in its reverse,
    so two elements of one canonical form whose maps (of two terms or more)
    were filled in different orders."""
    items = list(x.term_map().items())
    random.Random(seed).shuffle(items)
    a, b = AlgElem.from_terms(dict(items)), AlgElem.from_terms(dict(items[::-1]))
    assert len(items) < 2 or list(a.term_map()) != list(b.term_map())
    return a, b


def _display_sorted(x: AlgElem) -> tuple:
    return tuple(sorted(x.term_map().items(), key=lambda kv: kv[0].sort_key()))


@given(alg_elems, alg_elems, st.integers(0, 2**16), st.sampled_from((1, 2, 3)))
@settings(max_examples=60)
def test_insertion_order_is_invisible(x, y, seed, i):
    """An element keeps its term map in insertion order and sorts only when
    ``terms`` is read: ==, hash, repr, terms and equals agree for two orders,
    terms is the map sorted by Monomial.sort_key, and every operation on the
    two gives one result."""
    a, b = _built_in_two_orders(x, seed)
    assert a == b == x and hash(a) == hash(b) == hash(x)
    assert repr(a) == repr(b) == repr(x)
    assert a.terms == b.terms == x.terms == _display_sorted(a) == _display_sorted(b)
    assert a.equals(b) and b.equals(a)
    for value in (a * y, y * b, a + y, y - b, a.adjoint(), -b, b.scale(rational(2, 3)),
                  derive(i, a)):
        assert value.terms == _display_sorted(value)
    assert (a * y, y * a, a + y, y - a, a.adjoint(), derive(i, a)) == (
        b * y, y * b, b + y, y - b, b.adjoint(), derive(i, b))
    assert d0(a) == d0(b) and d1(OneForm.of(a, y, a)) == d1(OneForm.of(b, y, b))


@given(alg_elems, st.integers(0, 2**16))
@settings(max_examples=40)
def test_elements_and_forms_as_set_members_and_dict_keys(x, seed):
    a, b = _built_in_two_orders(x, seed)
    assert b in {a} and {a: "x"}[b] == "x" and len({a, b, x}) == 1
    one, one_twin = OneForm.of(a, 0, S1), OneForm.of(b, 0, S1)
    assert one_twin in {one} and {one: 1}[one_twin] == 1
    two = TwoForm.of(S2, a, 0)
    assert {two: 2}[TwoForm.of(S2, b, 0)] == 2


def test_elements_are_immutable_and_copy():
    """Attributes can be neither set nor deleted, the stored map included;
    copies and pickles are equal elements."""
    x = AlgElem.from_terms({monomial("12", "3"): 2, monomial("", "1"): rational(1, 2)})
    for name in ("terms", "_map", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, {})
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.terms == _display_sorted(x)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is AlgElem and c == x and hash(c) == hash(x) and c.terms == x.terms
