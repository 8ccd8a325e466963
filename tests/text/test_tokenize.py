"""Tests for the prefixed tokenizer (paper Sec. 3.1, "Tokenizer").

Detokenization is the reference recipe of ``tests/core/mask_reference.py``
(production regroups kept tokens in :mod:`repro.core.columnar`); the
round-trip tests here pin that recipe to the tokenizer.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import TokenizationError
from repro.text.tokenize import (
    PrefixedToken,
    Tokenizer,
    format_prefixed_token,
    parse_prefixed_token,
)
from tests.core.mask_reference import detokenize, detokenize_strings

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=8
)


class TestPrefixedToken:
    def test_prefixed_form(self):
        token = PrefixedToken("name", 2, "camera")
        assert token.prefixed == "name#2_camera"

    def test_rejects_hash_in_attribute(self):
        with pytest.raises(TokenizationError):
            PrefixedToken("na#me", 0, "x")

    def test_rejects_negative_position(self):
        with pytest.raises(TokenizationError):
            PrefixedToken("name", -1, "x")

    def test_rejects_empty_word(self):
        with pytest.raises(TokenizationError):
            PrefixedToken("name", 0, "")

    def test_shifted(self):
        token = PrefixedToken("name", 1, "x").shifted(5)
        assert token.position == 6
        assert token.attribute == "name"
        assert token.word == "x"


class TestParseFormatRoundTrip:
    def test_round_trip(self):
        token = PrefixedToken("description", 7, "10.2")
        assert parse_prefixed_token(token.prefixed) == token

    def test_word_with_underscore_survives(self):
        text = format_prefixed_token("name", 0, "a_b")
        assert parse_prefixed_token(text).word == "a_b"

    def test_missing_hash_raises(self):
        with pytest.raises(TokenizationError):
            parse_prefixed_token("name0_sony")

    def test_missing_underscore_raises(self):
        with pytest.raises(TokenizationError):
            parse_prefixed_token("name#0sony")

    def test_non_numeric_position_raises(self):
        with pytest.raises(TokenizationError):
            parse_prefixed_token("name#x_sony")

    def test_empty_attribute_raises(self):
        with pytest.raises(TokenizationError):
            parse_prefixed_token("#0_sony")

    @given(words, st.integers(min_value=0, max_value=999), words)
    def test_round_trip_property(self, attribute, position, word):
        token = PrefixedToken(attribute, position, word)
        assert parse_prefixed_token(token.prefixed) == token


class TestTokenizer:
    def setup_method(self):
        self.tokenizer = Tokenizer()

    def test_tokenize_value_enumerates(self):
        tokens = self.tokenizer.tokenize_value("name", "sony camera sony")
        assert [t.position for t in tokens] == [0, 1, 2]
        assert [t.word for t in tokens] == ["sony", "camera", "sony"]

    def test_duplicate_words_get_distinct_prefixes(self):
        tokens = self.tokenizer.tokenize_value("name", "sony sony")
        assert tokens[0].prefixed != tokens[1].prefixed

    def test_tokenize_entity_order(self):
        entity = {"name": "a b", "price": "9.99"}
        tokens = self.tokenizer.tokenize_entity(entity)
        assert [t.prefixed for t in tokens] == [
            "name#0_a",
            "name#1_b",
            "price#0_9.99",
        ]

    def test_detokenize_full_entity(self):
        entity = {"name": "sony digital camera", "price": "849.99"}
        tokens = self.tokenizer.tokenize_entity(entity)
        assert detokenize(tokens) == entity

    def test_detokenize_subset_preserves_order(self):
        tokens = self.tokenizer.tokenize_value("name", "a b c d")
        subset = [tokens[3], tokens[0], tokens[2]]
        assert detokenize(subset) == {"name": "a c d"}

    def test_detokenize_empty(self):
        assert detokenize([]) == {}

    def test_detokenize_strings(self):
        values = detokenize_strings(["name#1_b", "name#0_a"])
        assert values == {"name": "a b"}

    def test_empty_value_produces_no_tokens(self):
        assert self.tokenizer.tokenize_value("name", "") == []
        assert self.tokenizer.tokenize_value("name", None) == []

    @given(
        st.dictionaries(
            st.sampled_from(["name", "brand", "price"]),
            st.lists(words, min_size=1, max_size=6).map(" ".join),
            min_size=1,
            max_size=3,
        )
    )
    def test_round_trip_property(self, entity):
        # Tokenization normalizes values first, so the round trip lands on
        # the *normalized* entity (idempotent thereafter).
        from repro.text.normalize import normalize_value

        tokens = self.tokenizer.tokenize_entity(entity)
        rebuilt = detokenize(tokens)
        expected = {
            k: normalize_value(v) for k, v in entity.items() if normalize_value(v)
        }
        assert rebuilt == expected

    @given(
        st.lists(words, min_size=1, max_size=8).map(" ".join),
        st.binary(min_size=1, max_size=8).map(
            lambda b: [bit % 2 == 1 for bit in b]
        ),
    )
    def test_any_subset_rebuilds_subsequence(self, value, keep_bits):
        tokens = self.tokenizer.tokenize_value("name", value)
        kept = [t for t, keep in zip(tokens, keep_bits) if keep]
        rebuilt = detokenize(kept)
        if not kept:
            assert rebuilt == {}
        else:
            rebuilt_words = rebuilt["name"].split(" ")
            assert rebuilt_words == [t.word for t in sorted(kept, key=lambda t: t.position)]
