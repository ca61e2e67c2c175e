"""Normal forms, products, adjoints, equality and the word-tree oracle."""

import random

import pytest
from hypothesis import given, settings

from cuntzgeo import (
    AlgElem,
    CapacityError,
    Monomial,
    get_caps,
    monomial,
    set_caps,
)
from cuntzgeo.algebra import homogenize_terms, tree_action_of, words_of_length
from cuntzgeo.scalars import GScalar, ONE, rational

from support import alg_elems, random_elem, small_alg_elems

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


def test_equals_with_scalar():
    assert (S1.adjoint() * S1).equals(1)
    assert not S1.equals(0)


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
                                  monomial((1,), (4,)), monomial((1, 0), (2,))])
def test_letters_outside_the_alphabet_are_rejected(mono):
    with pytest.raises(ValueError, match="outside alphabet"):
        AlgElem.from_terms({mono: 1})


@pytest.mark.parametrize("i", [0, 4])
def test_generator_index_is_checked(i):
    with pytest.raises(ValueError, match="outside 1..3"):
        AlgElem.generator(i)


def test_caps_word_length():
    old = get_caps()
    try:
        set_caps(max_word_len=4)
        x = S1 * S1 * S1 * S1
        with pytest.raises(CapacityError):
            _ = x * S1
    finally:
        set_caps(*old)


def test_caps_homogenize():
    old = get_caps()
    try:
        set_caps(max_terms=10)
        long_nu = AlgElem.from_terms({monomial((), (1, 1, 1)): 1})
        with pytest.raises(CapacityError):
            UNIT.equals(long_nu)  # homogenizing the unit to level 3 needs 27 terms
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


@given(alg_elems)
def test_homogenization_preserves_element_under_oracle(x):
    level = max((len(m.nu) for m, _ in x.terms), default=0)
    h = list(homogenize_terms(x, level).items())
    for w in words_of_length(level + 1):
        assert tree_action_of(x.terms, w) == tree_action_of(h, w)


@given(alg_elems, alg_elems)
@settings(max_examples=100)
def test_equality_agrees_with_tree_oracle(x, y):
    level = max((len(m.nu) for m, _ in (x - y).terms), default=0)
    oracle = all(
        x.tree_action(w) == y.tree_action(w)
        for w in words_of_length(level + 1)
    )
    assert x.equals(y) == oracle


@given(small_alg_elems)
def test_constructed_equal_pairs(x):
    """Splitting one term through the completeness relation must not change
    the element."""
    rewritten = x.term_map()
    if x.terms:
        m, c = x.terms[0]
        del rewritten[m]
        y = AlgElem.from_terms(rewritten)
        expansion = AlgElem.from_terms(
            {Monomial(m.mu + (j,), m.nu + (j,)): c for j in (1, 2, 3)})
        assert (y + expansion).equals(x)
    else:
        assert x.equals(AlgElem.zero())


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
