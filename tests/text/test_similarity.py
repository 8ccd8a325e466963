"""Tests for the string/token similarity library."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import similarity as sim

short_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), max_size=12
)
token_lists = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=6,
    ),
    max_size=6,
)

STRING_MEASURES = [
    sim.levenshtein_similarity,
    sim.jaro_similarity,
    sim.jaro_winkler_similarity,
]
SET_MEASURES = [
    sim.jaccard_similarity,
    sim.overlap_coefficient,
    sim.dice_coefficient,
    sim.monge_elkan_similarity,
]


class TestLevenshtein:
    def test_identical(self):
        assert sim.levenshtein_distance("kitten", "kitten") == 0

    def test_classic_kitten_sitting(self):
        assert sim.levenshtein_distance("kitten", "sitting") == 3

    def test_empty_vs_word(self):
        assert sim.levenshtein_distance("", "abc") == 3

    def test_symmetric(self):
        assert sim.levenshtein_distance("abcd", "ab") == sim.levenshtein_distance(
            "ab", "abcd"
        )

    def test_similarity_normalization(self):
        assert sim.levenshtein_similarity("abc", "abd") == pytest.approx(2 / 3)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        ab = sim.levenshtein_distance(a, b)
        bc = sim.levenshtein_distance(b, c)
        ac = sim.levenshtein_distance(a, c)
        assert ac <= ab + bc


class TestJaro:
    def test_known_value_martha(self):
        # Classic textbook example.
        assert sim.jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_disjoint_strings(self):
        assert sim.jaro_similarity("abc", "xyz") == 0.0

    def test_winkler_boosts_common_prefix(self):
        base = sim.jaro_similarity("prefixed", "prefixes")
        boosted = sim.jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted >= base

    def test_winkler_known_value(self):
        assert sim.jaro_winkler_similarity("dixon", "dicksonx") == pytest.approx(
            0.8133, abs=1e-3
        )


class TestSetMeasures:
    def test_jaccard_half_overlap(self):
        assert sim.jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_overlap_subset_is_one(self):
        assert sim.overlap_coefficient(["a"], ["a", "b", "c"]) == 1.0

    def test_dice(self):
        assert sim.dice_coefficient(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_monge_elkan_tolerates_typos(self):
        clean = ["golden", "dragon"]
        typo = ["goldne", "dragon"]
        assert sim.monge_elkan_similarity(clean, typo) > 0.9


class TestNumericSimilarity:
    def test_equal_numbers(self):
        assert sim.numeric_similarity("10", "10.0") == 1.0

    def test_relative_difference(self):
        assert sim.numeric_similarity("100", "90") == pytest.approx(0.9)

    def test_non_numeric_is_zero(self):
        assert sim.numeric_similarity("abc", "10") == 0.0

    def test_both_empty_is_one(self):
        assert sim.numeric_similarity("", "") == 1.0

    def test_zero_vs_zero(self):
        assert sim.numeric_similarity("0", "0.0") == 1.0

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_parses_are_zero_not_nan(self, value):
        # float("nan") / float("inf") *parse*, so without an explicit
        # finiteness guard they fall through to NaN arithmetic.
        assert sim.numeric_similarity(value, "5") == 0.0
        assert sim.numeric_similarity("5", value) == 0.0
        assert sim.numeric_similarity(value, value) == 0.0


class TestSharedInvariants:
    @pytest.mark.parametrize("measure", STRING_MEASURES)
    @given(a=short_text, b=short_text)
    def test_string_measures_bounded(self, measure, a, b):
        value = measure(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12

    @pytest.mark.parametrize("measure", STRING_MEASURES)
    @given(a=short_text)
    def test_string_measures_identity(self, measure, a):
        assert measure(a, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("measure", SET_MEASURES)
    @given(a=token_lists, b=token_lists)
    def test_set_measures_bounded_and_symmetric(self, measure, a, b):
        value = measure(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9
        assert measure(b, a) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("measure", SET_MEASURES)
    def test_set_measures_empty_conventions(self, measure):
        assert measure([], []) == 1.0
        assert measure(["a"], []) == 0.0
