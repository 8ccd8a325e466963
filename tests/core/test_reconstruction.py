"""Tests for pair / dataset reconstruction."""

import numpy as np
import pytest

from repro.core.engine import ENGINE_OFF
from repro.core.generation import (
    GENERATION_DOUBLE,
    GENERATION_SINGLE,
    LandmarkGenerator,
)
from repro.core.reconstruction import DatasetReconstructor, PairReconstructor


@pytest.fixture()
def generator():
    return LandmarkGenerator()


@pytest.fixture()
def reconstructor():
    return PairReconstructor()


class TestPairReconstructor:
    def test_full_mask_round_trips_varying_entity(
        self, generator, reconstructor, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = reconstructor.rebuild(instance, [1] * len(instance.tokens))
        assert dict(rebuilt.right) == dict(toy_pair.right)

    def test_landmark_never_changes(self, generator, reconstructor, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = reconstructor.rebuild(instance, [0] * len(instance.tokens))
        assert dict(rebuilt.left) == dict(toy_pair.left)

    def test_empty_mask_empties_varying_entity(
        self, generator, reconstructor, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = reconstructor.rebuild(instance, [0] * len(instance.tokens))
        assert all(value == "" for value in rebuilt.right.values())

    def test_partial_mask_keeps_selected_words_in_order(
        self, generator, reconstructor, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        mask = [1] * len(instance.tokens)
        # drop the first name token ("nikon")
        drop_index = next(
            i for i, t in enumerate(instance.tokens)
            if t.attribute == "name" and t.position == 0
        )
        mask[drop_index] = 0
        rebuilt = reconstructor.rebuild(instance, mask)
        assert rebuilt.right["name"] == "leather case 5811"

    def test_double_generation_full_mask_is_augmented_pair(
        self, generator, reconstructor, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_DOUBLE)
        rebuilt = reconstructor.rebuild(instance, [1] * len(instance.tokens))
        # Varying side now holds its own tokens followed by the landmark's.
        assert rebuilt.right["name"].startswith("nikon leather case 5811")
        assert "sony" in rebuilt.right["name"]
        assert dict(rebuilt.left) == dict(toy_pair.left)

    def test_mask_length_checked(self, generator, reconstructor, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        with pytest.raises(ValueError):
            reconstructor.rebuild(instance, [1, 0])

    def test_label_and_id_preserved(self, generator, reconstructor, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = reconstructor.rebuild(instance, [0] * len(instance.tokens))
        assert rebuilt.label == toy_pair.label
        assert rebuilt.pair_id == toy_pair.pair_id


class TestDatasetReconstructor:
    def test_predict_masks_fn_calls_matcher(
        self, generator, beer_matcher, beer_dataset
    ):
        pair = beer_dataset[0]
        instance = generator.generate(pair, "left", GENERATION_SINGLE)
        predict_masks = DatasetReconstructor(beer_matcher).predict_masks_fn(instance)
        masks = np.ones((3, len(instance.tokens)), dtype=np.int8)
        masks[1] = 0
        probabilities = predict_masks(masks)
        assert probabilities.shape == (3,)
        assert np.all((probabilities >= 0) & (probabilities <= 1))
        # Row 0 is the unperturbed pair.
        assert probabilities[0] == pytest.approx(beer_matcher.predict_one(pair))

    def test_engineless_means_engine_off(self, beer_matcher):
        reconstructor = DatasetReconstructor(beer_matcher)
        assert reconstructor.engine.config == ENGINE_OFF
        assert reconstructor.stats.requested == 0
