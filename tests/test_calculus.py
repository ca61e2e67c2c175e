"""Derivations, rotations, forms and the two differentials."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from cuntzgeo import (
    BASIS_DIFFERENTIALS,
    AlgElem,
    Monomial,
    OneForm,
    TensorElem,
    TwoForm,
    antisym_lift,
    d0,
    d1,
    derive,
    differential,
    flip,
    junk_project,
    monomial,
    one_form_tensor,
    print_canonical,
    represented_product,
    rotate,
    sym_project,
    tensor_product,
    wedge,
)
from cuntzgeo import algebra, calculus
from cuntzgeo.calculus import GENERATOR_MATRICES
from cuntzgeo.scalars import GScalar, ONE, ZERO, rational

from support import (
    alg_elems,
    merge_pairs,
    one_forms,
    random_elem,
    random_gscalar,
    random_word,
    rank2_tensors,
    reference_d1,
    reference_derive,
    small_alg_elems,
)

S1, S2, S3 = (AlgElem.generator(i) for i in (1, 2, 3))


# -- the three derivations ----------------------------------------------------

DERIVATION_TABLE = {
    (1, 1): AlgElem.zero(), (1, 2): -S3, (1, 3): S2,
    (2, 1): -S3, (2, 2): AlgElem.zero(), (2, 3): S1,
    (3, 1): S2, (3, 2): -S1, (3, 3): AlgElem.zero(),
}


@pytest.mark.parametrize("i,j", [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
def test_derivation_table(i, j):
    assert derive(i, AlgElem.generator(j)) == DERIVATION_TABLE[(i, j)]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_derivation_kills_unit(i):
    assert derive(i, AlgElem.unit()).is_zero()


def test_generator_rows_have_at_most_one_nonzero_entry():
    """``derive`` gives each letter at most one image, so it relies on this."""
    for rows in GENERATOR_MATRICES.values():
        for row in rows:
            assert sum(1 for f in row if f) <= 1
            assert all(f in (-1, 0, 1) for f in row)


# S2S2* + S3S3*, whose images under D1 cancel in pairs, and an element whose
# images on (2j, 2j) under D1 all carry 1, a family that collapses to S2S2*
CANCELLING = AlgElem.from_terms({monomial("2", "2"): 1, monomial("3", "3"): 1})
COMPLETING = AlgElem.from_terms(
    {monomial("31", "21"): 1, monomial("23", "22"): 1, monomial("33", "23"): 2})


@given(alg_elems)
@example(CANCELLING)
@example(COMPLETING)
@settings(max_examples=100)
def test_derive_equals_the_full_row_reference(x):
    for i in (1, 2, 3):
        assert derive(i, x) == reference_derive(i, x)


def test_derive_cancels_and_collapses_its_images():
    assert derive(1, CANCELLING) == AlgElem.zero()
    assert derive(1, COMPLETING) == AlgElem.from_terms({
        monomial("2", "2"): 1, monomial("33", "22"): 1, monomial("32", "23"): 2,
        monomial("31", "31"): -1, monomial("23", "32"): -1, monomial("33", "33"): -2})


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=60)
def test_leibniz(a, b):
    for i in (1, 2, 3):
        lhs = derive(i, a * b)
        rhs = derive(i, a) * b + a * derive(i, b)
        assert lhs.equals(rhs)


@given(small_alg_elems)
@settings(max_examples=60)
def test_star_compatibility(a):
    for i in (1, 2, 3):
        assert derive(i, a.adjoint()).equals(derive(i, a).adjoint())


def _bracket(i, j, a):
    return derive(i, derive(j, a)) - derive(j, derive(i, a))


@pytest.mark.parametrize("i,j,k,sign", [
    (1, 2, 3, -1),
    (2, 3, 1, -1),
    (1, 3, 2, 1),
])
def test_commutators_on_generators(i, j, k, sign):
    for g in (S1, S2, S3, S1.adjoint(), S2.adjoint(), S3.adjoint()):
        assert _bracket(i, j, g) == derive(k, g).scale(GScalar.of(sign))


# -- rotations ----------------------------------------------------------------

PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    (Fraction(-4, 5), Fraction(3, 5), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)
CYCLE = (  # even permutation: S1 -> S3 -> S2 -> S1
    (Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
)


def test_rotate_pythagorean():
    got = rotate(PYTHAGOREAN, S1)
    want = S1.scale(GScalar.of(Fraction(3, 5))) + S2.scale(GScalar.of(Fraction(4, 5)))
    assert got == want


def test_rotate_permutation():
    assert rotate(CYCLE, S1) == S3
    assert rotate(CYCLE, S2) == S1
    assert rotate(CYCLE, S3) == S2


def test_rotate_rejects_non_orthogonal():
    bad = ((Fraction(2), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1)))
    with pytest.raises(ValueError, match="orthogonal"):
        rotate(bad, S1)


def test_rotate_rejects_reflection():
    refl = ((Fraction(-1), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1)))
    with pytest.raises(ValueError, match="determinant"):
        rotate(refl, S1)


def test_rotate_rejects_a_complex_orthogonal_matrix():
    """M^T M = I and det M = 1 hold for M below, but M is not unitary:
    rotating would send S1 to 5/4 S1 + 3/4i S2, whose S1* S1 is 17/8, not 1."""
    a, b = rational(5, 4), GScalar(0, Fraction(3, 4))
    m = ((a, b, 0), (-b, a, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="^rotation matrix must be real$"):
        rotate(m, S1)


def test_rotate_rejects_a_scalar_row():
    # a GScalar is the triple (a, b, d): read as a row, ZERO would be
    # (0, 0, 1) and complete the identity
    for matrix in ([[1, 0, 0], [0, 1, 0], ZERO], ([1, 0, 0], ONE, [0, 0, 1]), ZERO,
                   [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]]):
        with pytest.raises(ValueError, match="^rotation matrix must be 3x3$"):
            rotate(matrix, S3)
    assert rotate([[1, 0, 0], [0, 1, 0], [0, 0, 1]], S3) == S3


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


@given(small_alg_elems)
@settings(max_examples=40)
def test_rotate_is_functorial(x):
    once = rotate(PYTHAGOREAN, rotate(CYCLE, x))
    combined = rotate(_matmul(CYCLE, PYTHAGOREAN), x)
    assert once == combined


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=40)
def test_rotate_is_an_automorphism(a, b):
    assert rotate(PYTHAGOREAN, a * b).equals(
        rotate(PYTHAGOREAN, a) * rotate(PYTHAGOREAN, b))
    assert rotate(PYTHAGOREAN, a.adjoint()) == rotate(PYTHAGOREAN, a).adjoint()


# -- one- and two-forms -------------------------------------------------------

def test_d0_of_first_generator():
    v = d0(S1)
    assert v == OneForm((AlgElem.zero(), -S3, S2))


def test_presentations_of_the_basis():
    assert (S2.adjoint() * d0(S3)) == OneForm.basis(1)
    assert (S1.adjoint() * d0(S3)) == OneForm.basis(2)
    assert -(S1.adjoint() * d0(S2)) == OneForm.basis(3)


def test_junk_example():
    rep = represented_product(d0(S1.adjoint()), d0(S1))
    assert rep.junk == AlgElem.scalar(2)
    assert all(c.is_zero() for c in rep.c)


@given(small_alg_elems, small_alg_elems)
@settings(max_examples=40)
def test_d0_leibniz(a, b):
    lhs = d0(a * b)
    rhs = d0(a) * b + a * d0(b)
    assert lhs.equals(rhs)


@given(one_forms)
@settings(max_examples=60)
def test_d_squared_is_zero(v):
    assert d1(v * AlgElem.unit()).equals(d1(v)) # sanity on the call itself
    # d^2 = 0 on functions
    for comp in v.c:
        assert d1(d0(comp)).is_zero()


def test_basis_differentials_two_ways():
    e1 = S2.adjoint() * d0(S3)
    e2 = S1.adjoint() * d0(S3)
    e3 = -(S1.adjoint() * d0(S2))
    for i, pres in ((1, e1), (2, e2), (3, e3)):
        lhs = BASIS_DIFFERENTIALS[i - 1]
        rhs = d1(pres)
        assert lhs.equals(rhs)
    assert BASIS_DIFFERENTIALS[0] == TwoForm.basis(2, 3)
    assert BASIS_DIFFERENTIALS[1] == -TwoForm.basis(1, 3)
    assert BASIS_DIFFERENTIALS[2] == TwoForm.basis(1, 2)


def test_forms_of_different_degree_do_not_mix():
    assert OneForm.zero() != TwoForm.zero()
    assert not OneForm.zero().equals(TwoForm.zero())
    with pytest.raises(TypeError):
        OneForm.basis(1) + TwoForm.basis(1, 2)
    with pytest.raises(TypeError):
        TwoForm.basis(1, 2) - OneForm.basis(1)
    with pytest.raises(TypeError):
        TwoForm.basis(1, 2) * OneForm.basis(1)


@pytest.mark.parametrize("cls", [OneForm, TwoForm])
def test_forms_store_three_coefficients_as_a_tuple(cls):
    # a list or generator of coefficients gives the same, hashable form as
    # the tuple; anything but three AlgElems is refused at construction
    a, z = AlgElem.generator(1), AlgElem.zero()
    form = cls((a, z, z))
    for make in (list, iter):
        built = cls(make((a, z, z)))
        assert built == form and hash(built) == hash(form)
    assert type(cls([a, z, z]).c) is tuple
    for c in ((a,), (a, z), (a, z, z, z), (a, z, 5), (a, z, ONE), [a, None, z]):
        with pytest.raises(ValueError, match="three AlgElem coefficients"):
            cls(c)


def test_one_form_product_is_a_two_form():
    product = OneForm.basis(1) * OneForm.basis(2)
    assert type(product) is TwoForm
    assert product == TwoForm.basis(1, 2)
    assert OneForm.basis(2) * OneForm.basis(1) == -TwoForm.basis(1, 2)


def test_two_form_component_antisymmetry():
    w = TwoForm.basis(1, 2)
    assert w.component(1, 2) == AlgElem.unit()
    assert w.component(2, 1) == -AlgElem.unit()
    with pytest.raises(ValueError, match="indices"):
        w.component(1, 1)


# -- projections on rank-two tensors ------------------------------------------

@given(rank2_tensors)
@settings(max_examples=60)
def test_sym_project_is_idempotent(t):
    p = sym_project(t)
    assert sym_project(p).equals(p)


@given(rank2_tensors)
@settings(max_examples=60)
def test_flip_is_an_involution(t):
    assert flip(flip(t)).equals(t)


@given(rank2_tensors)
@settings(max_examples=60)
def test_wedge_kills_symmetric_part(t):
    assert wedge(sym_project(t)).is_zero()


@given(rank2_tensors)
@settings(max_examples=60)
def test_wedge_after_antisym_lift(t):
    w = wedge(t)
    assert wedge(antisym_lift(w)).equals(w)


def test_tensor_constructor_rejects_a_repeated_index():
    """A repeated index is a ValueError that names it, even where its
    coefficients would cancel (x and -x) or add up to 1 (S_j S_j^*); the
    same pairs merged by hand build the tensor that their sum is."""
    x = S1 * S2.adjoint() + 3
    pairs = [((1, 2), x), ((2, 1), S1 * S1.adjoint()), ((1, 2), -x),
             ((2, 1), S2 * S2.adjoint()), ((2, 1), S3 * S3.adjoint())]
    with pytest.raises(ValueError, match=r"^index \(1, 2\) is repeated$"):
        TensorElem(2, pairs)
    assert TensorElem(2, merge_pairs(pairs).items()) == TensorElem.basis(2, 1)
    rng = random.Random(5)
    for _ in range(100):
        pairs = []
        for _ in range(rng.randint(0, 8)):
            idx, y = (rng.randint(1, 3), rng.randint(1, 3)), random_elem(rng)
            pairs += [(idx, y), (idx, -y)] if rng.random() < 0.3 else [(idx, y)]
        rng.shuffle(pairs)
        indices = [idx for idx, _ in pairs]
        repeated = next((idx for k, idx in enumerate(indices) if idx in indices[:k]), None)
        if repeated is None:
            assert TensorElem(2, pairs) == TensorElem.from_entries(2, merge_pairs(pairs))
        else:
            shown = rf"\({repeated[0]}, {repeated[1]}\)"
            with pytest.raises(ValueError, match=rf"^index {shown} is repeated$"):
                TensorElem(2, pairs)


def test_the_tensor_constructor_is_the_one_stored_form():
    """The constructor's promise: no reader of ``entries`` meets an index
    that would land on another entry, and one tensor has one stored form.
    A repeated index would read as either coefficient or their sum, a
    coefficient that is not an element would fail only in a later reader,
    a zero entry would make a tensor that is not ``is_zero`` but ``equals``
    zero, and a list of entries an unhashable tensor unequal to its tuple
    form."""
    with pytest.raises(ValueError, match=r"^index \(1, 2\) is repeated$"):
        TensorElem(2, (((1, 2), S1), ((1, 2), S2)))
    with pytest.raises(ValueError, match=r"^coefficient at index \(1, 2\) is not an AlgElem: 5$"):
        TensorElem(2, (((1, 2), 5),))
    zero = TensorElem(2, (((1, 2), AlgElem.zero()),))
    assert zero.is_zero() and zero.entries == () and zero == TensorElem.zero(2)
    assert TensorElem(2, (((1, 2), AlgElem.zero()), ((2, 1), S1))).entries == (((2, 1), S1),)
    listed = TensorElem(2, [((2, 1), S1), ((1, 2), S2)])
    stored = (((1, 2), S2), ((2, 1), S1))
    assert listed.entries == stored and type(listed.entries) is tuple
    assert listed == TensorElem(2, stored) and hash(listed) == hash(TensorElem(2, stored))


def test_tensor_make_checks_the_rank_and_sorts_the_indices():
    # the constructor sorts the (index, coefficient) pairs with plain sorted:
    # the indices are distinct and checked first, so no coefficient is compared
    for key in ((1,), 5, "12"):
        with pytest.raises(ValueError, match="does not have rank 2"):
            TensorElem.from_entries(2, {key: GScalar(1)})
    indices = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    shuffled = random.Random(18).sample(indices, len(indices))
    assert shuffled != indices
    t = TensorElem.from_entries(2, {idx: GScalar(k + 1, -k) for k, idx in enumerate(shuffled)})
    assert [idx for idx, _ in t.entries] == indices
    assert t.entry_map() == {idx: AlgElem.scalar(GScalar(k + 1, -k))
                             for k, idx in enumerate(shuffled)}


def test_tensor_entry_checks_its_index():
    t = TensorElem.basis(1, 2)
    assert t.entry(1, 2) == AlgElem.unit() and t.entry(2, 1).is_zero()
    for bad in ((1,), (1, 2, 3), (0, 1), (1, 4)):
        with pytest.raises(ValueError, match="index"):
            t.entry(*bad)


def test_tensor_indices_are_ints():
    for bad in ((True, 2), (1, 2.0), (1, "2")):
        with pytest.raises(ValueError, match="outside 1..3"):
            TensorElem.basis(*bad)
    with pytest.raises(ValueError, match="index"):
        TensorElem.basis(1, 2).entry(True, 2)


@pytest.mark.parametrize("build", [
    lambda: TensorElem(True, (((1,), AlgElem.unit()),)),
    lambda: TensorElem(2.0, ()),
    lambda: TensorElem.zero(0),
    lambda: TensorElem.basis(),
    lambda: TensorElem.from_entries(-1, {}),
], ids=["bool", "float", "zero-0", "empty-basis", "negative"])
def test_tensor_rank_is_an_int_of_at_least_1(build):
    """A rank of True would admit a one-letter index, 2.0 would equal
    zero(2), and rank 0 would be a tensor that prints as a scalar."""
    with pytest.raises(ValueError, match="tensor rank .* is not an int of at least 1"):
        build()


def test_scale_is_multiplication_by_the_operand():
    """``scale`` follows the operand rule of ``*``: an exact scalar or, for a
    tensor, an element on the right; anything else is a TypeError."""
    t = TensorElem.basis(1, 2) + TensorElem.basis(2, 1) * 3
    assert t.scale(S2) == t * S2
    assert t.scale(S2).entry(1, 2) == S2 and print_canonical(t.scale(S2).entry(2, 1)) == "3 S2"
    assert t.scale(rational(1, 2)) == t * rational(1, 2)
    assert t.scale(0).is_zero()
    for bad in (0.5, True, "2"):
        with pytest.raises(TypeError):
            t.scale(bad)
    assert S1.scale(rational(1, 2)) == S1 * rational(1, 2)
    assert S1.scale(3) == 3 * S1
    for bad in (S2, 0.5, True, "2"):
        with pytest.raises(TypeError, match="not an exact rational"):
            S1.scale(bad)


def test_flip_is_the_leg_swap():
    """The flip 2*sym_project - id is the swap of the two legs."""
    t = TensorElem.basis(1, 2) * S1 + TensorElem.basis(3, 3) * 2
    assert flip(t) == TensorElem.basis(2, 1) * S1 + TensorElem.basis(3, 3) * 2
    assert flip(t).equals(sym_project(t) * 2 - t)
    with pytest.raises(ValueError, match="rank-2"):
        flip(TensorElem.basis(1, 2, 3))


def test_tensor_operands_are_checked():
    """A sum needs one rank and a tensor operand; negation is the product by
    -1; the leg swap and the rank-2 maps refuse a leg or rank outside them."""
    t = TensorElem.basis(1, 2) * S1 + TensorElem.basis(3, 1) * 2
    with pytest.raises(ValueError, match="tensor ranks differ"):
        t + TensorElem.basis(1)
    with pytest.raises(TypeError):
        t + 1
    assert -t == t * -1 == TensorElem.basis(1, 2) * -S1 + TensorElem.basis(3, 1) * -2
    assert (-t).entries == tuple((idx, -c) for idx, c in t.entries)
    with pytest.raises(ValueError, match="leg positions out of range"):
        t.flip_legs(0, 2)
    for rank_2_map in (sym_project, wedge):
        with pytest.raises(ValueError, match="rank-2"):
            rank_2_map(TensorElem.basis(1, 2, 3))


def test_no_differential_of_a_two_form():
    with pytest.raises(TypeError, match="outside this calculus"):
        differential(TwoForm.zero())


def test_tensor_equals_is_false_for_other_types():
    t = TensorElem.basis(1, 2)
    assert not t.equals(OneForm.zero())
    assert not t.equals(AlgElem.unit())
    assert not t.equals(TensorElem.basis(1, 2, 3))


def test_antisym_lift_of_basis():
    t = antisym_lift(TwoForm.basis(1, 2))
    half = GScalar.of(rational(1, 2).re)
    want = (TensorElem.basis(1, 2).scale(half)
            - TensorElem.basis(2, 1).scale(half))
    assert t.equals(want)


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_wedge_matches_represented_product(u, v):
    via_tensor = wedge(tensor_product(one_form_tensor(u), v))
    direct = u * v
    assert via_tensor.equals(direct)


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_d1_and_product_match_the_tensor_references(u, v):
    assert d1(u) == reference_d1(u)
    assert u * v == junk_project(represented_product(u, v))


def _mix_elem(rng, n):
    """n distinct terms with words of length at most 4, as in the
    calculus-mix benchmark (the canonical form may merge a few)."""
    terms = {}
    while len(terms) < n:
        terms[Monomial(random_word(rng, 4), random_word(rng, 4))] = (
            random_gscalar(rng, nonzero=True))
    return AlgElem.from_terms(terms)


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_d1_matches_the_reference_on_benchmark_sized_forms(n):
    rng = random.Random(9000 + n)
    for _ in range(2):
        x, y = _mix_elem(rng, n), _mix_elem(rng, n)
        omega = x * d0(y)
        assert d1(omega) == reference_d1(omega)


def _planted_forms(c, c2, d):
    """One-forms whose e23 component is completed by a summand from another i.

    ``nested``: a1 holds two members of the family F = {(1.j, 2.j)} and two
    of G = {(12.l, 22.l)}, the family of F's member M = (12, 22); D2(a3) =
    c M + c2 (122, 222) completes both at once, and the deeper G must merge
    first.  ``ordered``: a1 holds two members of F' = {(2.j, 3.j)}, -D3(a2)
    adds the third, M' = (23, 33), so F' merges, and D2(a3) then adds d M'
    beside it; another order of the summands gives another canonical form.
    """
    zero = AlgElem.zero()
    nested = OneForm.of(
        AlgElem.from_terms({monomial("11", "21"): c, monomial("13", "23"): c,
                            monomial("121", "221"): c2, monomial("123", "223"): c2}),
        zero,
        AlgElem.from_terms({monomial("32", "22"): c, monomial("322", "222"): c2}))
    ordered = OneForm.of(
        AlgElem.from_terms({monomial("21", "31"): c, monomial("22", "32"): c}),
        AlgElem.from_terms({monomial("13", "33"): -c}),
        AlgElem.from_terms({monomial("21", "33"): -d}))
    return nested, ordered


@pytest.mark.parametrize("seed", range(4))
def test_d1_keeps_the_summand_order_and_the_deepest_first_collapse(seed):
    rng = random.Random(seed)
    c, c2, d = (random_gscalar(rng, nonzero=True) for _ in range(3))
    for omega in _planted_forms(c, c2, d):
        assert d1(omega) == reference_d1(omega)


def test_d1_calls_derive_twice_per_nonzero_component(monkeypatch):
    calls = []
    derive_once = calculus._derive_terms

    def counted(i, a, sign=1):
        calls.append(i)
        return derive_once(i, a, sign)

    monkeypatch.setattr(calculus, "_derive_terms", counted)
    d1(OneForm.of(S1 + S2.adjoint(), S3 * S1.adjoint(), S2 - S1))
    assert len(calls) == 6
    calls.clear()
    d1(OneForm.of(0, S1, 0))
    assert sorted(calls) == [1, 3]


@pytest.mark.parametrize("seed", range(6))
def test_a_derivation_negates_each_term_at_most_once(monkeypatch, seed):
    """``d1`` passes the sign of ``-D_q(a_p)`` into the derivation rather
    than negating ``a_p`` first, so a derivation of either sign takes at
    most one ``GScalar`` negation per term of its argument.  The form has
    only a1 and a3, whose d(e_i) terms are added (``d(e1) = e23`` and
    ``d(e3) = e12``), so every negation of ``d1`` is a derivation's."""
    rng = random.Random(seed)
    a, b = (random_elem(rng, max_terms=8, max_len=4) for _ in range(2))
    count = 0
    neg = GScalar.__neg__

    def counting_neg(c):
        nonlocal count
        count += 1
        return neg(c)

    monkeypatch.setattr(GScalar, "__neg__", counting_neg)
    for i in (1, 2, 3):
        for sign in (1, -1):
            count = 0
            terms = calculus._derive_terms(i, a, sign)
            assert count <= len(a.term_map())
            monkeypatch.setattr(GScalar, "__neg__", neg)
            assert AlgElem(terms) == (derive(i, a) if sign > 0 else -derive(i, a))
            monkeypatch.setattr(GScalar, "__neg__", counting_neg)
    count = 0
    two = d1(OneForm.of(a, 0, b))
    # a1 and a3 each take two derivations: D2, D3 of a1 and D1, D2 of a3
    assert count <= 2 * (len(a.term_map()) + len(b.term_map()))
    monkeypatch.setattr(GScalar, "__neg__", neg)
    assert two == reference_d1(OneForm.of(a, 0, b))


def test_d1_and_equals_sort_only_what_they_return(monkeypatch):
    """No operation sorts: d1, equals, *, +, -, derive, d0 and adjoint make
    no _ordered call, whether equals sees the same terms or not.  Only
    reading ``terms`` sorts: once per read, so d1's three components take
    three sorts, and print_canonical of a form sorts each nonzero component
    at most once (a one-term component not at all)."""
    calls = [0]
    sort = algebra._ordered

    def counted(items):
        calls[0] += 1
        return sort(items)

    monkeypatch.setattr(algebra, "_ordered", counted)
    x, x_twin, y = S1 + S2.adjoint(), S2.adjoint() + S1, S3 * S1.adjoint()
    omega, omega_twin = OneForm.of(x, y, S2 - S1), OneForm.of(x_twin, y, S2 - S1)
    other = OneForm.of(y, x, S2 - S1)
    calls[0] = 0
    two = d1(omega)
    assert x.equals(x_twin) and not x.equals(y)
    assert omega.equals(omega_twin) and not omega.equals(other)
    for value in (x * y, x + y, x - y, derive(2, x * y), d0(x * y), (x * y).adjoint(),
                  d1(omega * x), omega * omega):
        assert not value.is_zero()
    assert calls[0] == 0
    for a in two.c:
        assert len(a.terms) > 1
    assert calls[0] == 3
    for form in (two, d0(x * y), omega):
        calls[0] = 0
        print_canonical(form)
        assert calls[0] <= sum(not a.is_zero() for a in form.c)
        assert calls[0] == sum(len(a.term_map()) > 1 for a in form.c)


def test_d1_negates_each_coefficient_once(monkeypatch):
    """d1 adds derive(q, -a) rather than subtracting derive(q, a), so the
    scalar negations do not grow with the number of images derive makes:
    S1^L has L of them under each derivation."""
    counts = []
    negate = GScalar.__neg__

    def counting(self):
        counts[-1] += 1
        return negate(self)

    monkeypatch.setattr(GScalar, "__neg__", counting)
    for length in (2, 8):
        counts.append(0)
        d1(OneForm.of(AlgElem.from_terms({monomial("1" * length): 1}), 0, 0))
    assert counts[1] <= counts[0]


@given(one_forms, one_forms)
@settings(max_examples=40)
def test_junk_project_matches_rep(u, v):
    rep = represented_product(u, v)
    assert junk_project(rep).equals(TwoForm(rep.c))


def test_central_coefficients_commute_past_basis():
    # scalar coefficients slide freely through the basis one-forms
    c = AlgElem.scalar(rational(5, 7))
    v = OneForm.basis(2)
    assert (c * v) == (v * c)
