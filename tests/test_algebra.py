"""Normal forms, products, adjoints, equality and the word-tree oracle."""

import itertools
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
from cuntzgeo.algebra import _Sum
from cuntzgeo.calculus import derive
from cuntzgeo.scalars import GScalar, ONE, rational

from support import (
    alg_elems,
    merge_pairs,
    random_elem,
    random_gscalar,
    random_word,
    reference_sum,
    small_alg_elems,
    split_terms,
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
    try:
        for name in ("max_word_len", "max_terms"):
            with pytest.raises(ValueError, match="positive int"):
                set_caps(**{name: value})
        assert get_caps() == old
    finally:
        set_caps(*old)


def test_caps_word_length():
    old = get_caps()
    try:
        set_caps(max_word_len=4)
        x = S1 * S1 * S1 * S1
        with pytest.raises(CapacityError):
            _ = x * S1
    finally:
        set_caps(*old)


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
    old = get_caps()
    try:
        set_caps(max_terms=10)
        long_nu = AlgElem.from_terms({monomial((), (1, 1, 1)): 1})
        assert not UNIT.equals(long_nu)
    finally:
        set_caps(*old)


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


def test_make_adds_repeated_monomials():
    """A repeated monomial adds its coefficients before the collapse: a
    cancelling pair vanishes, and the family of S1 completes only once the
    two halves of S1 S1 S1* are merged."""
    half = rational(1, 2)
    pairs = [(monomial("1", "2"), ONE), (monomial("11", "1"), half),
             (monomial("12", "2"), ONE), (monomial("1", "2"), -ONE),
             (monomial("13", "3"), ONE), (monomial("11", "1"), half)]
    assert AlgElem._make(pairs) == AlgElem.from_terms(merge_pairs(pairs)) == S1


@pytest.mark.parametrize("seed", range(3))
def test_make_equals_from_terms_of_the_merged_pairs(seed):
    """Pieces of x split through sum_j S_j S_j^* = 1, some of them cut in
    two halves, in shuffled order beside pairs that cancel: ``_make`` gives
    the canonical form of the hand-merged terms, and that is x."""
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
        made = AlgElem._make(pairs)
        assert made == AlgElem.from_terms(merge_pairs(pairs))
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
    # the same terms in one mapping: _make's collapse from every term
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
    acc.add(x.term_map(), sign)
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
