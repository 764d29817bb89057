"""Tests for the braid word algebra.

Expected permutations are recomputed here with permutation matrices so the
word code is checked against linear algebra rather than against itself.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import (
    Band,
    BraidLetter,
    BraidWord,
    InputError,
    QuasipositiveFactorization,
    band_euler_characteristic,
    classify_positivity,
    closure_components,
    concat,
    cycle_count,
    cyclic_reduce,
    exponent_sum,
    expand_factorization,
    free_reduce,
    invert,
    letters_from_pairs,
    permutation_of,
    qpf_from_json,
    qpf_to_json,
    word_from_json,
    word_from_text,
    word_to_json,
    word_to_text,
)
from quasibraid.words import foata_form, trace_form


def matrix_permutation(word):
    """Independent permutation oracle.

    Each letter s_k (sign irrelevant) becomes the transposition matrix
    swapping rows k, k+1; the product taken in word order is the matrix of
    the induced permutation, read off column by column.
    """
    n = word.strands
    acc = np.eye(n, dtype=int)
    for let in word.letters:
        t = np.eye(n, dtype=int)
        k = let.index - 1
        t[[k, k + 1]] = t[[k + 1, k]]
        acc = acc @ t
    images = []
    for col in range(n):
        rows = np.nonzero(acc[:, col])[0]
        assert len(rows) == 1
        images.append(int(rows[0]) + 1)
    return tuple(images)


def random_cancel(word, rng):
    """Alternative free reducer: delete cancelling pairs in random order."""
    letters = list(word.letters)
    while True:
        pairs = [
            i
            for i in range(len(letters) - 1)
            if letters[i] == letters[i + 1].inverse()
        ]
        if not pairs:
            return BraidWord(word.strands, tuple(letters))
        i = rng.choice(pairs)
        del letters[i : i + 2]


def small_words(max_strands=5, max_letters=12):
    def build(draw_data):
        strands, pairs = draw_data
        return BraidWord(strands, letters_from_pairs(pairs))

    return st.integers(min_value=2, max_value=max_strands).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=n - 1),
                    st.sampled_from((-1, 1)),
                ),
                max_size=max_letters,
            ),
        ).map(build)
    )


W52 = word_from_text("s1 s1 s2 s2 s1 s2^-1", strands=3)


class TestPermutations:
    def test_single_generator_is_a_transposition(self):
        word = word_from_text("s1", strands=2)
        assert permutation_of(word) == (2, 1)

    def test_matrix_oracle_on_named_word(self):
        assert permutation_of(W52) == matrix_permutation(W52)

    def test_sign_does_not_affect_the_permutation(self):
        pos = word_from_text("s1 s2", strands=3)
        neg = word_from_text("s1^-1 s2^-1", strands=3)
        assert permutation_of(pos) == permutation_of(neg)

    @settings(max_examples=200)
    @given(small_words())
    def test_matrix_oracle_everywhere(self, word):
        assert permutation_of(word) == matrix_permutation(word)

    def test_cycle_count_rejects_non_permutations(self):
        with pytest.raises(InputError):
            cycle_count((1, 1, 3))


class TestClosure:
    def test_empty_word_closes_to_n_circles(self):
        assert closure_components(BraidWord(3)) == 3

    def test_single_generator_closes_to_one_circle(self):
        assert closure_components(word_from_text("s1", strands=2)) == 1

    def test_named_knot_word_is_a_knot(self):
        # Orbit representatives of the matrix permutation give an
        # independent component count.
        perm = matrix_permutation(W52)
        reps = set()
        for i in range(1, 4):
            orbit = {i}
            j = perm[i - 1]
            while j not in orbit:
                orbit.add(j)
                j = perm[j - 1]
            reps.add(min(orbit))
        assert len(reps) == 1
        assert closure_components(W52) == 1

    @settings(max_examples=200)
    @given(small_words())
    def test_closure_count_matches_cycles_of_matrix_permutation(self, word):
        perm = matrix_permutation(word)
        reps = set()
        for i in range(1, word.strands + 1):
            orbit = {i}
            j = perm[i - 1]
            while j not in orbit:
                orbit.add(j)
                j = perm[j - 1]
            reps.add(min(orbit))
        assert closure_components(word) == len(reps)


class TestFreeReduction:
    def test_adjacent_inverse_pair_cancels(self):
        word = word_from_text("s1 s1^-1", strands=2)
        assert free_reduce(word).letters == ()

    def test_cancellation_cascades(self):
        word = word_from_text("s1 s2 s2^-1 s1^-1 s1", strands=3)
        assert word_to_text(free_reduce(word)) == "s1"

    def test_reduced_word_is_fixed(self):
        word = word_from_text("s1 s2 s1", strands=3)
        assert free_reduce(word) == word

    @settings(max_examples=300)
    @given(small_words(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_reduction_order_is_irrelevant(self, word, seed):
        rng = random.Random(seed)
        assert free_reduce(word) == random_cancel(word, rng)

    @settings(max_examples=200)
    @given(small_words())
    def test_idempotent(self, word):
        once = free_reduce(word)
        assert free_reduce(once) == once

    @settings(max_examples=200)
    @given(small_words())
    def test_word_times_inverse_reduces_to_identity(self, word):
        assert free_reduce(concat(word, invert(word))).letters == ()


def random_commute(word, rng, swaps=20):
    """The word after ``swaps`` tries at exchanging a random adjacent pair
    of letters, each done when their indices differ by at least 2."""
    letters = list(word.letters)
    for _ in range(swaps if len(letters) > 1 else 0):
        i = rng.randrange(len(letters) - 1)
        if abs(letters[i].index - letters[i + 1].index) >= 2:
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    return BraidWord(word.strands, tuple(letters))


def projections(word):
    """The word's letters with indices in {k, k + 1}, for every k: two words
    are equal up to far commutations exactly when all of these agree
    (Cori and Perrin's projection lemma)."""
    return [
        [(let.index, let.sign) for let in word.letters if let.index in (k, k + 1)]
        for k in range(1, max(word.strands - 1, 2))
    ]


class TestCommutingLetters:
    def test_far_letters_sort_by_index(self):
        assert word_to_text(foata_form(word_from_text("s3 s1", strands=4))) == "s1 s3"

    def test_adjacent_letters_keep_their_order(self):
        word = word_from_text("s2 s1 s3 s2^-1", strands=4)
        assert foata_form(word) == word

    def test_steps_follow_the_last_letter_in_reach(self):
        word = word_from_text("s4 s1 s2 s5 s3", strands=6)
        assert word_to_text(foata_form(word)) == "s1 s4 s2 s5 s3"

    def test_an_inverse_cancels_across_far_letters(self):
        word = word_from_text("s3 s5 s3^-1 s5^-1", strands=6)
        assert trace_form(word).letters == ()
        assert free_reduce(word) == word

    def test_an_adjacent_letter_blocks_cancellation(self):
        word = word_from_text("s1 s2 s1^-1", strands=3)
        assert trace_form(word) == word

    def test_cancellation_then_sorting(self):
        word = word_from_text("s1 s4 s3 s4^-1 s1^-1 s1", strands=5)
        assert word_to_text(trace_form(word)) == "s1 s4 s3 s4^-1"

    @settings(max_examples=300)
    @given(small_words(max_strands=7), st.integers(min_value=0, max_value=2**32 - 1))
    def test_far_commutations_keep_the_forms(self, word, seed):
        moved = random_commute(word, random.Random(seed))
        assert foata_form(moved) == foata_form(word)
        assert trace_form(moved) == trace_form(word)

    @settings(max_examples=300)
    @given(small_words(max_strands=4, max_letters=6), small_words(max_strands=4, max_letters=6))
    def test_equal_forms_are_equal_projections(self, a, b):
        b = BraidWord(a.strands, tuple(l for l in b.letters if l.index < a.strands))
        assert (foata_form(a) == foata_form(b)) == (projections(a) == projections(b))

    @settings(max_examples=300)
    @given(small_words(max_strands=7), small_words(max_strands=7), st.integers(min_value=0, max_value=2**32 - 1))
    def test_the_trace_form_is_one_per_element(self, word, other, seed):
        # Inserting u u^-1 anywhere and commuting far letters keeps the
        # element of the group where only far letters commute.
        rng = random.Random(seed)
        other = BraidWord(word.strands, tuple(l for l in other.letters if l.index < word.strands))
        cut = rng.randint(0, len(word))
        padded = concat(
            BraidWord(word.strands, word.letters[:cut]),
            other,
            invert(other),
            BraidWord(word.strands, word.letters[cut:]),
        )
        assert trace_form(random_commute(padded, rng, swaps=60)) == trace_form(word)
        assert trace_form(concat(word, invert(word))).letters == ()
        assert trace_form(trace_form(word)) == trace_form(word)


class TestCyclicReduction:
    def test_conjugation_wrapper_is_stripped(self):
        word = word_from_text("s1 s2 s1^-1", strands=3)
        assert word_to_text(cyclic_reduce(word)) == "s2"

    def test_freely_reduced_core_survives(self):
        word = word_from_text("s2^-1 s1 s1 s2", strands=3)
        assert word_to_text(cyclic_reduce(word)) == "s1 s1"

    @settings(max_examples=200)
    @given(small_words())
    def test_no_wraparound_cancellation_remains(self, word):
        reduced = cyclic_reduce(word)
        if reduced.letters:
            assert reduced.letters[0] != reduced.letters[-1].inverse()


class TestExponentSum:
    def test_counts_signs(self):
        assert exponent_sum(W52) == 4

    @settings(max_examples=200)
    @given(small_words(), small_words())
    def test_additive_under_concatenation(self, a, b):
        n = max(a.strands, b.strands)
        a2 = BraidWord(n, a.letters)
        b2 = BraidWord(n, b.letters)
        assert exponent_sum(concat(a2, b2)) == exponent_sum(a2) + exponent_sum(b2)

    @settings(max_examples=200)
    @given(small_words(), small_words())
    def test_invariant_under_conjugation(self, w, c):
        n = max(w.strands, c.strands)
        w2 = BraidWord(n, w.letters)
        c2 = BraidWord(n, c.letters)
        conj = concat(c2, w2, invert(c2))
        assert exponent_sum(conj) == exponent_sum(w2)
        assert closure_components(conj) == closure_components(w2)


class TestPositivityClassification:
    def test_positive_and_strict(self):
        report = classify_positivity(word_from_text("s1 s2", strands=3))
        assert report.positive
        assert report.strictly_positive
        assert report.syntactically_quasipositive

    def test_positive_but_not_strict_when_a_generator_is_missing(self):
        report = classify_positivity(word_from_text("s1 s1", strands=3))
        assert report.positive
        assert not report.strictly_positive

    def test_conjugated_generator_parses_as_a_band(self):
        report = classify_positivity(word_from_text("s2 s1 s2^-1", strands=3))
        assert not report.positive
        assert report.syntactically_quasipositive

    def test_negative_generator_is_not_quasipositive_syntactically(self):
        report = classify_positivity(word_from_text("s1^-1", strands=2))
        assert not report.positive
        assert not report.syntactically_quasipositive

    def test_band_product_parses(self):
        text = "s1 s2 s1 s2^-1 s2 s1 s2 s1^-1 s2^-1"
        report = classify_positivity(word_from_text(text, strands=3))
        assert report.syntactically_quasipositive

    def test_parse_bound_defers_long_words(self):
        long_word = BraidWord(2, letters_from_pairs([(1, 1)] * 25))
        report = classify_positivity(long_word)
        assert report.syntactically_quasipositive is None
        forced = classify_positivity(long_word, parse_bound=25)
        assert forced.syntactically_quasipositive is True

    @settings(max_examples=150)
    @given(small_words(max_letters=4))
    def test_expanded_factorizations_always_parse(self, conj):
        n = conj.strands
        band = Band(conjugator=conj.letters, index=1)
        qpf = QuasipositiveFactorization(strands=n, bands=(band,))
        word = expand_factorization(qpf)
        if len(word.letters) <= 24:
            assert classify_positivity(word).syntactically_quasipositive


class TestFactorizations:
    def test_expansion_of_a_bare_generator_band(self):
        qpf = QuasipositiveFactorization(
            strands=3, bands=(Band(conjugator=(), index=2),)
        )
        assert word_to_text(expand_factorization(qpf)) == "s2"

    def test_expansion_wraps_conjugators(self):
        band = Band(conjugator=letters_from_pairs([(2, 1)]), index=1)
        qpf = QuasipositiveFactorization(strands=3, bands=(band,))
        assert word_to_text(expand_factorization(qpf)) == "s2 s1 s2^-1"

    def test_expansion_exponent_sum_is_the_band_count(self):
        bands = (
            Band(conjugator=letters_from_pairs([(1, -1), (2, 1)]), index=1),
            Band(conjugator=(), index=2),
            Band(conjugator=letters_from_pairs([(2, 1)]), index=1),
        )
        qpf = QuasipositiveFactorization(strands=3, bands=bands)
        assert exponent_sum(expand_factorization(qpf)) == 3

    def test_band_surface_euler_characteristic(self):
        qpf = QuasipositiveFactorization(
            strands=4,
            bands=(
                Band(conjugator=(), index=1),
                Band(conjugator=(), index=2),
                Band(conjugator=(), index=3),
            ),
        )
        assert band_euler_characteristic(qpf) == 1

    def test_band_index_must_fit_strand_count(self):
        with pytest.raises(InputError):
            QuasipositiveFactorization(
                strands=2, bands=(Band(conjugator=(), index=2),)
            )


class TestSerialization:
    def test_text_round_trip(self):
        text = "s1 s2^-1 s1 s1^-1"
        word = word_from_text(text, strands=3)
        assert word_to_text(word) == text

    def test_text_rejects_malformed_tokens(self):
        with pytest.raises(InputError):
            word_from_text("s1 sigma2", strands=3)

    def test_text_rejects_out_of_range_index(self):
        with pytest.raises(InputError):
            word_from_text("s3", strands=3)

    @settings(max_examples=150)
    @given(small_words())
    def test_json_round_trip(self, word):
        assert word_from_json(word_to_json(word)) == word

    def test_qpf_json_round_trip(self):
        bands = (
            Band(conjugator=letters_from_pairs([(2, -1)]), index=1),
            Band(conjugator=(), index=2),
        )
        qpf = QuasipositiveFactorization(strands=3, bands=bands)
        assert qpf_from_json(qpf_to_json(qpf)) == qpf

    def test_letter_construction_validates_sign(self):
        with pytest.raises(InputError):
            BraidLetter(index=1, sign=2)
        with pytest.raises(InputError):
            BraidLetter(index=0, sign=1)
