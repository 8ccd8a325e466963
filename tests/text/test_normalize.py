"""Tests for repro.text.normalize."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.normalize import (
    normalize_value,
    normalize_values,
    normalize_whitespace,
    strip_accents,
    tokens_of,
)
from tests.matchers.feature_reference import reference_normalize

#: Characters where a one-pass normalizer could part ways with the regex
#: recipe: the ASCII separators ``str.isspace`` counts as whitespace,
#: Unicode spaces, every mark of both punctuation classes, and accents.
TRICKY = (
    "\x1c\x1d\x1e\x1f\xa0\u2028\u3000 \t\n"
    ",;:!?\"'()[]{}<>|/\\&*+=~`^-#%@._"
    "éÉñüçÅ\u0301\u0327ﬁ𝑨"
)


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("a  b\t c\n d") == "a b c d"

    def test_strips_ends(self):
        assert normalize_whitespace("  hello  ") == "hello"

    def test_empty(self):
        assert normalize_whitespace("") == ""


class TestStripAccents:
    def test_cafe(self):
        assert strip_accents("café") == "cafe"

    def test_no_accents_unchanged(self):
        assert strip_accents("hello world") == "hello world"

    def test_multiple_accents(self):
        assert strip_accents("crème brûlée") == "creme brulee"


class TestNormalizeValue:
    def test_none_is_empty(self):
        assert normalize_value(None) == ""

    def test_nan_is_empty(self):
        assert normalize_value(float("nan")) == ""

    def test_nan_string_is_empty(self):
        assert normalize_value("NaN") == ""
        assert normalize_value("null") == ""

    def test_lowercases(self):
        assert normalize_value("Sony Camera") == "sony camera"

    def test_keeps_decimal_prices(self):
        assert normalize_value(849.99) == "849.99"

    def test_whole_floats_become_ints(self):
        assert normalize_value(2021.0) == "2021"

    def test_integers(self):
        assert normalize_value(42) == "42"

    def test_punctuation_to_space(self):
        assert normalize_value("black/white (new)") == "black white new"

    def test_hyphen_splits_tokens(self):
        assert normalize_value("dslr-a200w") == "dslr a200w"

    def test_hash_dropped(self):
        assert normalize_value("item#12") == "item12"

    def test_keeps_periods_inside_numbers(self):
        assert normalize_value("10.2 megapixels") == "10.2 megapixels"

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize_value(text)
        assert normalize_value(once) == once

    @given(st.text(max_size=60))
    def test_never_leading_or_trailing_space(self, text):
        normalized = normalize_value(text)
        assert normalized == normalized.strip()

    @given(
        st.one_of(
            st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=40),
            st.text(alphabet=TRICKY + "aBc1", max_size=40),
        )
    )
    def test_equals_regex_recipe(self, text):
        assert normalize_value(text) == reference_normalize(text)

    @given(st.floats(allow_nan=True, allow_infinity=False))
    def test_floats_never_crash(self, value):
        result = normalize_value(value)
        assert isinstance(result, str)
        if math.isnan(value):
            assert result == ""


#: Spellings of a missing value in any case, beside near misses that must
#: survive (padded, accented, or only null after normalization).
NULL_LIKE = (
    "nan", "NaN", "NAN", "None", "NONE", "null", "Null", "nULL",
    " nan", "nan ", "nañ", "n-a-n", "(null)", "nonE!", "NaN NaN",
)

#: Final sigma and other characters whose case mapping looks at their
#: neighbours, beside the batch separator (NUL) itself.
CONTEXT = "ΣσςİIıΑΣ\x00"


class TestNormalizeValues:
    """The batched normalization equals normalize_value, value by value."""

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=30),
                st.text(alphabet=TRICKY + CONTEXT + "aBc1 ", max_size=30),
                st.sampled_from(NULL_LIKE),
            ),
            max_size=12,
        )
    )
    def test_equals_value_by_value(self, values):
        assert normalize_values(values) == [normalize_value(v) for v in values]

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [""],
            ["", "", ""],
            list(NULL_LIKE),
            ["Crème  Brûlée", "café", "ﬁle", "𝑨BC", "ÅNGSTRÖM"],
            ["aΣ", "Σa", "ΑΣ", "σ", "ΣΣ ς"],
            ["a\x1cb", "\x1d\x1e", "x\x1f", "  \t\n ", "\xa0\u3000y"],
            ["a,,;;b", "--", "#%@", "x  --  y", "(a)[b]{c}"],
            ["a\x00b", "c"],  # a value holding the separator itself
        ],
    )
    def test_edge_batches(self, values):
        assert normalize_values(values) == [normalize_value(v) for v in values]


class TestTokensOf:
    def test_simple_split(self):
        assert tokens_of("sony digital camera") == ["sony", "digital", "camera"]

    def test_empty_value_no_tokens(self):
        assert tokens_of("") == []
        assert tokens_of(None) == []

    def test_no_empty_tokens(self):
        assert "" not in tokens_of("a,  b,,   c")

    @given(st.text(max_size=80))
    def test_tokens_are_nonempty_and_spaceless(self, text):
        for token in tokens_of(text):
            assert token
            assert " " not in token
