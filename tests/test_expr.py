"""Grammar, diagnostics and the parse/print round trip."""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuntzgeo import (
    AlgElem,
    CapacityError,
    OneForm,
    ParseError,
    TwoForm,
    d0,
    d1,
    monomial,
    parse_alg,
    parse_expr,
    parse_scalar,
    print_canonical,
)
from cuntzgeo import algebra, cli, exprs
from cuntzgeo.exprs import MAX_LITERAL_DIGITS, MAX_NESTING
from cuntzgeo.scalars import GScalar, rational

from support import (
    alg_elems,
    caps,
    monomials,
    one_forms,
    reference_print,
    small_alg_elems,
    split_terms,
)


def test_parse_monomials():
    x = parse_alg("S1 S2* + 1/2 S3")
    expected = AlgElem.from_terms({
        monomial((1,), (2,)): 1,
        monomial((3,), ()): rational(1, 2),
    })
    assert x == expected


def test_parse_scalars():
    assert parse_scalar("3/4") == rational(3, 4)
    assert parse_scalar("-2") == rational(-2)
    assert parse_scalar("i") == GScalar.of(0, 1)
    assert parse_scalar("3/4i") == GScalar.of(0, rational(3, 4).re)
    assert parse_scalar("1/2 + 3/4i") == GScalar(rational(1, 2).re, rational(3, 4).re)


def test_adjoint_and_dot_product():
    assert parse_alg("S1* S1") == AlgElem.unit()
    assert parse_alg("S1.S2") == parse_alg("S1 S2")
    # whitespace may come between a generator and its '*'
    assert parse_alg("S1 *") == parse_alg("S1*")
    assert parse_alg("S1\n*") == parse_alg("S1*")
    assert parse_alg("S2 *S2") == AlgElem.unit()


def test_juxtaposition_without_space():
    assert parse_alg("S1S2") == parse_alg("S1 S2")


def test_differential_in_grammar():
    assert parse_expr("d(S1)") == d0(AlgElem.generator(1))
    w = parse_expr("d(e1 S2)")
    assert isinstance(w, TwoForm)
    assert w == d1(OneForm.of(AlgElem.generator(2), 0, 0))


def test_one_form_arithmetic():
    v = parse_expr("e1 S2 - 1/2 e3")
    assert isinstance(v, OneForm)
    assert v.component(1) == AlgElem.generator(2)
    assert v.component(3) == AlgElem.scalar(rational(-1, 2))


def test_form_times_form_is_two_form():
    w = parse_expr("e1 e2")
    assert isinstance(w, TwoForm)
    assert w == TwoForm.basis(1, 2)
    assert parse_expr("e2 e1") == -TwoForm.basis(1, 2)


def test_canonical_examples():
    assert print_canonical(parse_expr("d(S1)")) == "- e2 S3 + e3 S2"
    assert print_canonical(parse_alg("S1 S2*")) == "S1 S2*"
    assert print_canonical(parse_alg("S2 S1 S3* S3*")) == "S2 S1 S3* S3*"
    assert print_canonical(parse_expr("S2* d(S3)")) == "e1"
    assert print_canonical(AlgElem.zero()) == "0"
    assert print_canonical(OneForm.zero()) == "0"


def test_mixed_coefficient_printing():
    c = GScalar(rational(1, 2).re, rational(-3, 4).re)
    x = AlgElem.generator(1).scale(c)
    text = print_canonical(x)
    assert text == "(1/2 - 3/4i) S1"
    assert parse_alg(text) == x


def test_pure_imaginary_printing():
    x = AlgElem.generator(2).scale(GScalar.of(0, 1))
    assert print_canonical(x) == "i S2"
    y = AlgElem.unit().scale(GScalar.of(0, -1))
    assert print_canonical(y) == "- i"


def test_decimal_mode():
    assert print_canonical(AlgElem.scalar(rational(3, 4)), decimal=True) == "0.75"
    assert print_canonical(AlgElem.scalar(rational(-3, 2)), decimal=True) == "- 1.5"
    # no finite expansion: stays a fraction
    assert print_canonical(AlgElem.scalar(rational(1, 3)), decimal=True) == "1/3"


# -- diagnostics --------------------------------------------------------------

@pytest.mark.parametrize("text,fragment,offset", [
    ("S1 +", "expected a scalar", 4),
    ("(S1", "closing ')'", 3),
    ("S4", "unexpected character", 0),
    ("e4", "unexpected character", 0),
    ("d S1", "'(' after 'd'", 2),
    ("S1* *", "adjoint '*'", 4),
    ("1/0", "zero denominator", 0),
    ("1.5", "decimal literals", 1),
    # a decimal point is reported at the dot, after the literal's own faults
    ("1/2.5", "decimal literals", 3),
    ("1.5i", "decimal literals", 1),
    ("1/0.5", "zero denominator", 0),
    ("S1 ^ S2", "unexpected character", 3),
    ("S1 . *", "expected a scalar", 5),
    ("e1 *", "adjoint '*'", 3),
    ("(S1)*", "adjoint '*'", 4),
    ("S1 * *", "adjoint '*'", 5),
    ("d(S1) *", "adjoint '*'", 6),
    # a superscript digit is not a digit of a literal
    ("1.²", "unexpected character", 2),
    # only ASCII digits make a literal, as only they make a letter
    ("٣ S1", "unexpected character '٣'", 0),
    ("１/２", "unexpected character '１'", 0),
    # one row per token kind whose branch of the tokenizer or parser moved
    ("2 S1 + 0.5 S2", "decimal literals", 8),
    ("S1 + d", "'(' after 'd'", 6),
    ("d e1", "'(' after 'd'", 2),
    ("S1 / 2", "unexpected character '/'", 3),
    ("1/ 2", "unexpected character '/'", 1),
    ("1/2/3 S1", "unexpected character '/'", 3),
    ("S1S2*^", "unexpected character '^'", 5),
    ("S1 . S2 S4", "unexpected character 'S'", 8),
    ("2 S3*?", "unexpected character '?'", 5),
    ("e12 *", "adjoint '*'", 4),
    ("S1 e2* S3", "adjoint '*'", 5),
    # a degree fault inside nested groups is reported at the value in them:
    # a summand at its first token (parse_expr's single-term return keeps
    # that offset) and a factor at its own
    ("e1 + ((e12))", "different degree", 7),
    ("((e1 e2)) e3", "form degree 2", 10),
    # input after a complete expression, past any whitespace
    ("S1 )", "unexpected trailing input", 3),
    ("S1\t\n)", "unexpected trailing input", 4),
])
def test_parse_errors_carry_offsets(text, fragment, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert fragment in str(err.value)
    assert err.value.position == offset


# -- the decimal point ---------------------------------------------------------

@pytest.mark.parametrize("text,canonical", [
    # a "." after a generator or form symbol's digit is the product
    ("S1.5", "5 S1"),
    ("e1.2", "2 e1"),
    ("e12.3", "3 e12"),
    ("S1.S2.3", "3 S1 S2"),
    # as it is after any other symbol
    ("S3*.5", "5 S3*"),
    ("(1).5", "5"),
    ("2i.5", "10i"),
])
def test_a_dot_after_a_symbol_multiplies(text, canonical):
    assert print_canonical(parse_expr(text)) == canonical


_FACTOR_TEXTS = ("S1", "S2*", "e1", "e13", "3", "1/2", "i", "(S1 + 2)", "d(S2)")


def _outcome(text):
    """The value of the text, or the message and offset of its fault."""
    try:
        return parse_expr(text)
    except ParseError as exc:
        return exc.message, exc.position


@given(st.sampled_from(_FACTOR_TEXTS), st.sampled_from(_FACTOR_TEXTS))
def test_a_dot_between_factors_is_juxtaposition(a, b):
    # except between a number's digits and a digit, where it is a decimal point
    assume(not (a in ("3", "1/2") and b[0].isdigit()))
    assert _outcome(f"{a}.{b}") == _outcome(f"{a} {b}")


# valid texts as their tokens, which a single space joins
_TOKEN_TEXTS = (
    ("S1", "S2", "*", "+", "3/4i", "S3"),
    ("-", "(", "S1", "+", "2", ")", ".", "S2", "*"),
    ("d", "(", "S1", "S2*", ")", "+", "e1", "S3"),
    ("e1", "e2", "-", "e13", "(", "1/2", "+", "i", ")"),
    ("1/2", "-", "S1*", ".", "S3", "S3", "*"),
)
_SPACE_RUNS = st.text(alphabet=" \t\n\r\f\v", min_size=1, max_size=4)


@given(st.sampled_from(_TOKEN_TEXTS), st.data())
def test_whitespace_between_tokens_is_one_separator(tokens, data):
    """Runs of any ASCII whitespace between the tokens and at both ends of a
    text give the value of its single-space form."""
    runs = data.draw(st.lists(_SPACE_RUNS, min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(run + token for run, token in zip(runs, tokens)) + runs[-1]
    assert parse_expr(text) == parse_expr(" ".join(tokens))


def test_trailing_whitespace_is_scanned_once():
    """A text that ends in a long whitespace run parses in time linear in
    it; scanning the run again from each of its characters takes seconds
    at this length."""
    for tail in (" " * 20_000, "\t\n" * 10_000):
        start = time.perf_counter()
        assert parse_expr("S1" + tail) == parse_expr("S1")
        with pytest.raises(ParseError, match="expected a scalar") as err:
            parse_expr(tail)
        assert err.value.position == len(tail)
        assert time.perf_counter() - start < 2


def test_context_errors():
    with pytest.raises(ParseError, match="one-form symbol in algebra context"):
        parse_alg("e1")
    with pytest.raises(ParseError, match="different degree"):
        parse_expr("S1 + e1")
    with pytest.raises(ParseError, match="degree 2"):
        parse_expr("e1 e2 e3")
    with pytest.raises(ParseError, match="outside this calculus"):
        parse_expr("d(d(d(S1)))")
    with pytest.raises(ParseError, match="expected a scalar"):
        parse_scalar("S1")
    for parse in (parse_alg, parse_scalar):
        with pytest.raises(ParseError, match="differential in algebra context") as err:
            parse("S1 + d(S1)")
        assert err.value.position == 5


def test_faults_are_reported_in_text_order(capsys):
    # a context fault is reported before a later syntax fault ...
    with pytest.raises(ParseError, match="one-form symbol in algebra context") as err:
        parse_alg("e1 + (S1")
    assert err.value.position == 0
    # ... and so is an exceeded cap (the word cap is 16 letters) ...
    text = "S1 " * 17 + ")"
    with pytest.raises(CapacityError):
        parse_expr(text)
    assert cli.main(["eval", text]) == 3
    assert capsys.readouterr().err.startswith("resource cap exceeded:")
    # ... but lexical faults still come first
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_alg("e1 + S4")
    assert err.value.position == 5


def test_nesting_is_bounded():
    assert parse_expr("(" * MAX_NESTING + "S1" + ")" * MAX_NESTING) == parse_expr("S1")
    assert parse_expr("d(" + "(" * (MAX_NESTING - 1) + "S1" + ")" * MAX_NESTING) \
        == parse_expr("d(S1)")
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_expr("(" * (MAX_NESTING + 1) + "S1" + ")" * (MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING


def test_literal_length_is_bounded():
    digits = "7" * MAX_LITERAL_DIGITS
    assert parse_scalar(f"1/{digits}") == GScalar.of(Fraction(1, int(digits)))
    for text in (digits + "7", f"3/{digits}7 S1", f"S1 + {digits}7i"):
        with pytest.raises(ParseError, match="literal longer"):
            parse_expr(text)
    # before a decimal point's fault
    with pytest.raises(ParseError, match="literal longer") as err:
        parse_expr(digits + "7.5")
    assert err.value.position == 0


def test_error_never_exits(capsys):
    # a diagnostic, not a crash or sys.exit
    try:
        parse_expr("d(")
    except ParseError as exc:
        assert exc.position == 2
    assert capsys.readouterr().out == ""


# -- generator runs -----------------------------------------------------------

@pytest.mark.parametrize("sep,star", [(" ", "*"), ("", "*"), (".", "*"),
                                      (" . ", "*"), (" ", " *")])
def test_a_generator_run_makes_no_element_product(monkeypatch, sep, star):
    """A run of letters folds into one word: six plain letters and six
    starred ones, whose word is not zero, make no AlgElem product."""
    letters = [f"S{k}" for k in (1, 2, 3, 3, 2, 1)] + [f"S{k}{star}" for k in (2, 1, 3, 1, 2, 3)]
    calls = 0
    mul = AlgElem.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(AlgElem, "__mul__", counting_mul)
    for text in (sep.join(letters), "2 " + sep.join(letters)):
        x = parse_alg(text)
        assert x.terms[0][0] == monomial((1, 2, 3, 3, 2, 1), (3, 2, 1, 3, 1, 2))
    assert calls == 0


@pytest.mark.parametrize("sep", ["", " ", ".", " . ", "\t", " .\n"])
@pytest.mark.parametrize("star", ["*", " *", "\n*"])
def test_a_run_carries_the_shared_letter_monomials(sep, star):
    """Each letter of a run token is one of the six table keys itself, not a
    copy, whatever separates the letters and their stars: the word-code pair
    (j, 0) of S_j or (0, j) of S_j*."""
    text = sep.join(["S1", f"S2{star}", "S3", f"S1{star}"])
    (kind, pos, letters), eof = exprs._tokenize(text)
    assert (kind, pos, eof) == ("gen", 0, ("eof", len(text), None))
    assert letters == ((1, 0), (0, 2), (3, 0), (0, 1))
    table = exprs._LETTERS.values()
    assert all(any(letter is entry for entry in table) for letter in letters)


_LETTER_SPELLINGS = st.lists(
    st.tuples(st.integers(1, 3), st.booleans(),
              st.sampled_from(("", " ", ".", " . ", "\t", " .\n")),
              st.sampled_from(("*", " *", "\n*"))),
    min_size=1, max_size=12)


@given(_LETTER_SPELLINGS)
@settings(max_examples=200, deadline=None)
def test_a_run_is_the_product_of_its_letters(spelled):
    text, product = "", AlgElem.unit()
    for k, (letter, starred, sep, star) in enumerate(spelled):
        text += (sep if k else "") + f"S{letter}" + (star if starred else "")
        gen = AlgElem.generator(letter)
        product = product * (gen.adjoint() if starred else gen)
    assert parse_alg(text) == product
    assert parse_expr(text) == product


@st.composite
def _word_and_run(draw, cap):
    """A one-term word W with nonempty mu and nu of at most ``cap`` letters
    each, and a run of letters: first k plain letters that cancel nu's first
    k letters, then letters of any kind (growing, cancelling or clashing);
    or, after the cancelled letters, a growth of mu (all of nu cancelled)
    or of nu to exactly the cap or one letter past it."""
    word = st.lists(st.integers(1, 3), min_size=1, max_size=cap).map(tuple)
    letters = st.integers(1, 3)
    mu, nu = draw(word), draw(word)
    grow = draw(st.sampled_from(("any", "mu", "nu")))
    k = len(nu) if grow == "mu" else draw(st.integers(0, len(nu)))
    run = [(letter, False) for letter in nu[:k]]
    if grow == "any":
        run += draw(st.lists(st.tuples(letters, st.booleans()), max_size=20))
    else:
        n = cap + draw(st.integers(0, 1)) - (len(mu) if grow == "mu" else len(nu) - k)
        run += [(draw(letters), grow == "nu") for _ in range(n)]
    return monomial(mu, nu), draw(st.sampled_from((1, -2, rational(3, 4)))), run


def _value_or_cap_error(build):
    try:
        return build()
    except CapacityError as exc:
        return f"CapacityError: {exc}"


@pytest.mark.parametrize("cap", [16, 40])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_run_from_a_word_is_the_product_of_its_letters(cap, data):
    """``(W) run`` equals W times the element of each letter, or both raise
    the same CapacityError, for a word W whose mu and nu are both nonempty:
    the run steps W's word, cancelling, clashing and growing on both sides."""
    with caps(max_word_len=cap):
        m, c, run = data.draw(_word_and_run(cap))
        w = AlgElem.from_terms({m: c})
        text = f"({print_canonical(w)}) " + " ".join(
            f"S{letter}{'*' if starred else ''}" for letter, starred in run)

        def product():
            x = w
            for letter, starred in run:
                gen = AlgElem.generator(letter)
                x = x * (gen.adjoint() if starred else gen)
            return x

        expected = _value_or_cap_error(product)
        assert _value_or_cap_error(lambda: parse_alg(text)) == expected
        assert _value_or_cap_error(lambda: parse_expr(text)) == expected


def test_runs_keep_the_cap_and_zero_rules_of_letter_products(capsys):
    # a 17-letter word is over the cap (16), in a run as through the CLI
    with pytest.raises(CapacityError):
        parse_alg("S1 " * 17)
    assert cli.main(["eval", "S2." * 16 + "S2"]) == 3
    assert capsys.readouterr().err.startswith("resource cap exceeded:")
    # a zero product stops the word: later letters are never checked
    assert parse_alg("S1* S2 " + "S3 " * 30).is_zero()
    assert parse_alg("S1* . S2 " + "S3* " * 30).is_zero()
    # letters multiply into the term's product one at a time, so a factor
    # before the run decides with it: a zero coefficient or an earlier word
    # that the run kills gives 0, and an intermediate word over the cap is
    # over it even when the run later shortens it
    assert parse_alg("0 " + "S1 " * 17).is_zero()
    assert parse_alg("S1* 2 S2 " + "S1 " * 16).is_zero()
    assert parse_alg("S1* 2 " + "S1 " * 17) == parse_alg("2 " + "S1 " * 16)
    with pytest.raises(CapacityError):
        parse_alg("S1* " * 10 + "2 " + "S2* " * 7 + "S2 " * 7)
    assert parse_alg("S1* " * 9 + "2 " + "S2* " * 7 + "S2 " * 7) \
        == parse_alg("2 " + "S1* " * 9)


def test_a_run_that_crosses_the_cap_midway_raises(capsys):
    # the cap is checked after each letter of a run, not only at its end,
    # and read when the run is parsed, so set_caps applies to the next parse
    for text in ("S1 " * 20, "S3* " * 20, "S1 S2 " * 10, "S2 " * 10 + "2 " + "S3 " * 10):
        with pytest.raises(CapacityError):
            parse_alg(text)
        assert cli.main(["eval", text]) == 3
        assert capsys.readouterr().err.startswith("resource cap exceeded:")
    with caps(max_word_len=4):
        with pytest.raises(CapacityError):
            parse_alg("S1 S2 S3 S1 S2 S3")
        with pytest.raises(CapacityError):
            parse_alg("S1* S2* S3* S1* S2*")
        assert cli.main(["eval", "S1 S1 S1 S1 S1 S1"]) == 3
    with caps(max_word_len=6):
        assert parse_alg("S1 S2 S3 S1 S2 S3") == AlgElem.from_terms(
            {monomial((1, 2, 3, 1, 2, 3), ()): 1})


# -- sums ---------------------------------------------------------------------

def _sum_text(signed) -> str:
    """``(v1) - (v2) + ...`` for (sign, value) pairs."""
    return " ".join(f"{'-' if sign < 0 else '+'} ({print_canonical(v)})"
                    for sign, v in signed)


@given(small_alg_elems, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_one_form_sum_is_the_left_fold(x, rng):
    """A parsed sum of one-forms is the left fold of + and - of its summands:
    the pieces of x go into each component, and families complete there."""
    pieces = [(k, m, c) for k in (1, 2, 3) for m, c in split_terms(x, rng)]
    rng.shuffle(pieces)
    breaking = rng.sample(pieces, rng.randint(0, len(pieces)))
    pieces += [(k, m, -c) for k, m, c in breaking]
    signed = []
    while pieces:
        n = rng.randint(1, 4)
        coeffs = [{} for _ in range(3)]
        for k, m, c in pieces[:n]:
            coeffs[k - 1][m] = coeffs[k - 1].get(m, 0) + c
        pieces = pieces[n:]
        v = OneForm(tuple(AlgElem.from_terms(d) for d in coeffs))
        if not v.is_zero():
            signed.append((rng.choice((1, -1)), v))
    assume(signed)
    fold = OneForm.zero()
    for sign, v in signed:
        fold = fold - v if sign < 0 else fold + v
    assert parse_expr(_sum_text(signed)) == fold


@given(small_alg_elems, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_term_cap_applies_to_each_prefix_of_a_sum(x, rng):
    """A sum exceeds max_terms=k exactly when a prefix of its fold has more
    than k terms; a collapse that briefly holds more is no fault."""
    pieces = split_terms(x, rng)
    rng.shuffle(pieces)
    summands = [AlgElem.from_terms({m: c}) for m, c in pieces]
    assume(summands)
    text = _sum_text((1, s) for s in summands)
    fold, peak = AlgElem.zero(), 0
    for s in summands:
        fold = fold + s
        peak = max(peak, len(fold.terms))
    for k in {max(peak - 1, 1), peak}:
        with caps(max_terms=k):
            if peak > k:
                with pytest.raises(CapacityError):
                    parse_alg(text)
            else:
                assert parse_alg(text) == fold


def test_term_cap_through_the_cli(capsys):
    # prefixes of 1, 2 and 1 terms; the last addition holds 3 before collapsing
    text = "S1 S1* + S2 S2* + S3 S3*"
    with caps(max_terms=2):
        assert cli.main(["eval", text]) == 0
        assert capsys.readouterr().out == "1\n"
    with caps(max_terms=1):
        assert cli.main(["eval", text]) == 3
        assert capsys.readouterr().err.startswith("resource cap exceeded:")


def _distinct_terms_text(n: int) -> str:
    """n summands ``c S_mu S_nu*`` with distinct words and coefficients."""
    k = 1
    while 3 ** k < n:
        k += 1
    words = itertools.islice(itertools.product((1, 2, 3), repeat=k), n)
    return " + ".join(
        f"{c} " + " ".join([f"S{a}" for a in w[:2]] + [f"S{a}*" for a in w[2:]])
        for c, w in enumerate(words, start=1))


def test_parse_work_is_linear_in_the_summands(monkeypatch):
    """Count the keys handed to the collapse: a fold that re-canonicalizes
    its accumulator at every summand counts about N^2."""
    count = 0
    collapse = algebra._collapse

    def counting_collapse(terms, *seeds):
        nonlocal count
        count += len(seeds[0]) if seeds else len(terms)
        collapse(terms, *seeds)

    monkeypatch.setattr(algebra, "_collapse", counting_collapse)
    for n in (243, 2187):
        count = 0
        assert len(parse_alg(_distinct_terms_text(n)).terms) == n
        assert count <= 4 * n


# -- round trips ---------------------------------------------------------------

@given(alg_elems)
@settings(max_examples=150)
def test_alg_round_trip(x):
    assert parse_alg(print_canonical(x)) == x


def test_only_scalars_elements_and_forms_print():
    with pytest.raises(TypeError, match="cannot print object"):
        print_canonical(object())


def test_decimal_mode_is_output_only():
    # decimal text is for reading, not for feeding back in
    with pytest.raises(ParseError, match="decimal literals"):
        parse_expr(print_canonical(AlgElem.scalar(rational(3, 4)), decimal=True))


@given(one_forms)
@settings(max_examples=100)
def test_one_form_round_trip(v):
    text = print_canonical(v)
    if v.is_zero():
        assert text == "0"
    else:
        assert parse_expr(text) == v


@given(small_alg_elems, small_alg_elems, small_alg_elems)
@settings(max_examples=50)
def test_two_form_round_trip(a, b, c):
    w = TwoForm((a, b, c))
    parsed = parse_expr(print_canonical(w))
    if w.is_zero():
        assert parsed == AlgElem.zero() or parsed == TwoForm.zero()
    else:
        assert parsed == w


# -- the printer against its reference -----------------------------------------

# a part of a coefficient: any small fraction, or a terminating decimal
_parts = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(lambda n, a, b: Fraction(n, 2**a * 5**b),
              st.integers(-999, 999), st.integers(0, 3), st.integers(0, 3)),
).filter(bool)
# real, imaginary and complex coefficients
_coefficients = st.one_of(
    st.builds(GScalar, _parts),
    st.builds(GScalar, st.just(0), _parts),
    st.builds(GScalar, _parts, _parts),
)
_elems = st.dictionaries(monomials, _coefficients, max_size=5).map(AlgElem.from_terms)
_printed = st.one_of(
    _elems,
    st.tuples(_elems, _elems, _elems).map(OneForm),
    st.tuples(_elems, _elems, _elems).map(TwoForm),
)


@given(_printed, st.booleans())
@settings(max_examples=300, deadline=None)
def test_print_canonical_matches_the_reference_printer(x, decimal):
    assert print_canonical(x, decimal) == reference_print(x, decimal)


@given(_elems)
@settings(max_examples=100, deadline=None)
def test_eval_json_parts_are_fraction_strings(x):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", "--json", print_canonical(x)]) == 0
    parts = [(term["re"], term["im"]) for term in json.loads(out.getvalue())["terms"]]
    assert parts == [(str(c.re), str(c.im)) for _, c in x.terms]
