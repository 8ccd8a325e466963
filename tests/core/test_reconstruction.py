"""Tests for pair / dataset reconstruction (the paper's Sec. 3 steps).

Pair reconstruction is a row of :func:`~repro.core.columnar.landmark_batch`;
dataset reconstruction is :meth:`~repro.core.engine.PredictionEngine.
predict_instance`, the mask-predict function every landmark explainer
hands its surrogate.
"""

import numpy as np
import pytest

from repro.baselines.mojito import MojitoDropExplainer
from repro.core.columnar import landmark_batch
from repro.core.engine import PredictionEngine
from repro.core.generation import (
    GENERATION_DOUBLE,
    GENERATION_SINGLE,
    LandmarkGenerator,
)
from repro.core.landmark import LandmarkExplainer
from repro.explainers.anchors import anchor_for_landmark


@pytest.fixture()
def generator():
    return LandmarkGenerator()


def rebuild(instance, mask):
    """The rebuilt pair of one mask: row 0 of a one-row batch."""
    return landmark_batch(instance, [mask]).pairs()[0]


class TestPairReconstructor:
    def test_full_mask_round_trips_varying_entity(self, generator, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = rebuild(instance, [1] * len(instance.tokens))
        assert dict(rebuilt.right) == dict(toy_pair.right)

    def test_landmark_never_changes(self, generator, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = rebuild(instance, [0] * len(instance.tokens))
        assert dict(rebuilt.left) == dict(toy_pair.left)

    def test_empty_mask_empties_varying_entity(self, generator, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = rebuild(instance, [0] * len(instance.tokens))
        assert all(value == "" for value in rebuilt.right.values())

    def test_partial_mask_keeps_selected_words_in_order(
        self, generator, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        mask = [1] * len(instance.tokens)
        # drop the first name token ("nikon")
        drop_index = next(
            i for i, t in enumerate(instance.tokens)
            if t.attribute == "name" and t.position == 0
        )
        mask[drop_index] = 0
        rebuilt = rebuild(instance, mask)
        assert rebuilt.right["name"] == "leather case 5811"

    def test_double_generation_full_mask_is_augmented_pair(
        self, generator, toy_pair
    ):
        instance = generator.generate(toy_pair, "left", GENERATION_DOUBLE)
        rebuilt = rebuild(instance, [1] * len(instance.tokens))
        # Varying side now holds its own tokens followed by the landmark's.
        assert rebuilt.right["name"].startswith("nikon leather case 5811")
        assert "sony" in rebuilt.right["name"]
        assert dict(rebuilt.left) == dict(toy_pair.left)

    def test_mask_length_checked(self, generator, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        with pytest.raises(ValueError):
            rebuild(instance, [1, 0])

    def test_label_and_id_preserved(self, generator, toy_pair):
        instance = generator.generate(toy_pair, "left", GENERATION_SINGLE)
        rebuilt = rebuild(instance, [0] * len(instance.tokens))
        assert rebuilt.label == toy_pair.label
        assert rebuilt.pair_id == toy_pair.pair_id


class TestDatasetReconstructor:
    def test_predict_masks_fn_calls_matcher(
        self, generator, beer_matcher, beer_dataset
    ):
        pair = beer_dataset[0]
        instance = generator.generate(pair, "left", GENERATION_SINGLE)
        engine = PredictionEngine(beer_matcher)
        masks = np.ones((3, len(instance.tokens)), dtype=np.int8)
        masks[1] = 0
        probabilities = engine.predict_instance(instance, masks)
        assert probabilities.shape == (3,)
        assert np.all((probabilities >= 0) & (probabilities <= 1))
        # Row 0 is the unperturbed pair.
        assert probabilities[0] == pytest.approx(beer_matcher.predict_one(pair))
        # Rows 0 and 2 rebuild the same pair: one matcher row between them.
        assert engine.stats.requested == 3
        assert engine.stats.calls_issued == 2

    def test_explainers_without_an_engine_build_a_caching_one(
        self, generator, beer_matcher, match_pair
    ):
        for explainer in (
            LandmarkExplainer(beer_matcher),
            MojitoDropExplainer(beer_matcher),
        ):
            assert isinstance(explainer.engine, PredictionEngine)
            assert explainer.engine.stats.requested == 0
        instance = generator.generate(match_pair, "left", GENERATION_SINGLE)
        anchor = anchor_for_landmark(
            instance, beer_matcher, rng=np.random.default_rng(0)
        )
        assert anchor.n_model_calls > 0
