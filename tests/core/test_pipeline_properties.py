"""Property-based tests over the whole landmark pipeline.

Hypothesis drives random (schema, entities, masks) through landmark
generation and pair reconstruction, asserting the structural invariants
the evaluation logic silently depends on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import landmark_batch
from repro.core.generation import (
    GENERATION_DOUBLE,
    GENERATION_SINGLE,
    LandmarkGenerator,
)
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.text.normalize import normalize_value
from repro.text.tokenize import Tokenizer

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=6,
)
values = st.lists(words, min_size=0, max_size=5).map(" ".join)

attributes = st.sampled_from([("name",), ("name", "brand"), ("name", "brand", "price")])


@st.composite
def record_pairs(draw):
    attribute_names = draw(attributes)
    schema = PairSchema(attribute_names)
    left = {attribute: draw(values) for attribute in attribute_names}
    right = {attribute: draw(values) for attribute in attribute_names}
    label = draw(st.integers(min_value=0, max_value=1))
    return RecordPair(schema, left, right, label=label, pair_id=draw(
        st.integers(min_value=0, max_value=10_000)
    ))


class TestGenerationProperties:
    @given(record_pairs(), st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_single_tokens_equal_varying_entity_tokens(self, pair, side):
        instance = LandmarkGenerator().generate(pair, side, GENERATION_SINGLE)
        tokenizer = Tokenizer()
        expected = tokenizer.tokenize_entity(pair.entity(instance.varying_side))
        assert list(instance.tokens) == expected
        assert not any(instance.injected)

    @given(record_pairs(), st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_double_token_count_is_sum_of_sides(self, pair, side):
        instance = LandmarkGenerator().generate(pair, side, GENERATION_DOUBLE)
        tokenizer = Tokenizer()
        n_left = len(tokenizer.tokenize_entity(pair.left))
        n_right = len(tokenizer.tokenize_entity(pair.right))
        assert len(instance.tokens) == n_left + n_right
        assert instance.n_injected == len(
            tokenizer.tokenize_entity(pair.entity(side))
        )

    @given(record_pairs(), st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_feature_names_always_unique(self, pair, side):
        instance = LandmarkGenerator().generate(pair, side, GENERATION_DOUBLE)
        names = instance.feature_names
        assert len(names) == len(set(names))


class TestReconstructionProperties:
    @given(
        record_pairs(),
        st.sampled_from(["left", "right"]),
        st.sampled_from([GENERATION_SINGLE, GENERATION_DOUBLE]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_landmark_is_always_preserved(self, pair, side, generation, seed):
        instance = LandmarkGenerator().generate(pair, side, generation)
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=len(instance.tokens))
        rebuilt = landmark_batch(instance, [mask]).pairs()[0]
        landmark = pair.entity(side)
        assert dict(rebuilt.entity(side)) == dict(landmark)
        assert rebuilt.label == pair.label
        assert rebuilt.pair_id == pair.pair_id

    @given(record_pairs(), st.sampled_from(["left", "right"]))
    @settings(max_examples=60, deadline=None)
    def test_full_single_mask_rebuilds_normalized_varying_entity(self, pair, side):
        instance = LandmarkGenerator().generate(pair, side, GENERATION_SINGLE)
        full_mask = [1] * len(instance.tokens)
        rebuilt = landmark_batch(instance, [full_mask]).pairs()[0]
        varying = instance.varying_side
        for attribute in pair.schema.attributes:
            assert rebuilt.entity(varying)[attribute] == normalize_value(
                pair.entity(varying)[attribute]
            )

    @given(
        record_pairs(),
        st.sampled_from(["left", "right"]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_token_multiset_survives(self, pair, side, seed):
        instance = LandmarkGenerator().generate(pair, side, GENERATION_DOUBLE)
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=len(instance.tokens))
        rebuilt = landmark_batch(instance, [mask]).pairs()[0]
        kept_words = sorted(
            token.word
            for token, bit in zip(instance.tokens, mask)
            if bit
        )
        rebuilt_words = sorted(
            word
            for value in rebuilt.entity(instance.varying_side).values()
            for word in value.split()
            if word
        )
        assert rebuilt_words == kept_words
