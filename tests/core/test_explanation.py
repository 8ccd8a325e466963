"""Tests for explanation views: PairTokenWeights, Landmark/Dual explanations."""

import numpy as np
import pytest

from repro.core.columnar import removal_batch
from repro.core.explanation import PairTokenWeights, TokenEntry
from repro.core.generation import GENERATION_DOUBLE, GENERATION_SINGLE
from repro.core.landmark import LandmarkExplainer
from repro.exceptions import ExplanationError
from repro.explainers.lime_text import LimeConfig


@pytest.fixture(scope="module")
def explainer(beer_matcher):
    return LandmarkExplainer(
        beer_matcher, lime_config=LimeConfig(n_samples=48, seed=0), seed=0
    )


@pytest.fixture(scope="module")
def single_dual(explainer, match_pair):
    return explainer.explain(match_pair, GENERATION_SINGLE)


@pytest.fixture(scope="module")
def double_dual(explainer, non_match_pair):
    return explainer.explain(non_match_pair, GENERATION_DOUBLE)


def remove_tokens_from_pair(pair, keys):
    """Row 0 of a one-row :func:`removal_batch`."""
    return removal_batch(pair, [keys]).pairs()[0]


class TestRemoveTokens:
    def test_removes_addressed_tokens(self, toy_pair):
        reduced = remove_tokens_from_pair(toy_pair, [("left", "name", 0)])
        assert reduced.left["name"] == "digital camera dslra200w"
        assert dict(reduced.right) == dict(toy_pair.right)

    def test_no_keys_is_identity_on_normalized_values(self, toy_pair):
        unchanged = remove_tokens_from_pair(toy_pair, [])
        assert dict(unchanged.left) == dict(toy_pair.left)

    def test_removing_everything_empties_both_sides(self, toy_pair):
        from repro.text.tokenize import Tokenizer

        tokenizer = Tokenizer()
        keys = []
        for side in ("left", "right"):
            for token in tokenizer.tokenize_entity(toy_pair.entity(side)):
                keys.append((side, token.attribute, token.position))
        reduced = remove_tokens_from_pair(toy_pair, keys)
        assert all(not v for v in reduced.left.values())
        assert all(not v for v in reduced.right.values())


class TestPairTokenWeights:
    def _weights(self, toy_pair):
        entries = [
            TokenEntry("left", "name", 0, "sony", 0.4),
            TokenEntry("left", "name", 1, "digital", -0.1),
            TokenEntry("right", "name", 0, "nikon", -0.3),
            TokenEntry("right", "price", 0, "7.99", 0.05),
        ]
        return PairTokenWeights(toy_pair, entries)

    def test_duplicate_keys_rejected(self, toy_pair):
        entries = [
            TokenEntry("left", "name", 0, "sony", 0.4),
            TokenEntry("left", "name", 0, "sony", 0.2),
        ]
        with pytest.raises(ExplanationError):
            PairTokenWeights(toy_pair, entries)

    def test_weight_lookup(self, toy_pair):
        weights = self._weights(toy_pair)
        assert weights.weight("left", "name", 0) == pytest.approx(0.4)
        with pytest.raises(ExplanationError):
            weights.weight("left", "name", 9)

    def test_entries_by_sign(self, toy_pair):
        weights = self._weights(toy_pair)
        positives = {entry.word for entry in weights.entries_by_sign("positive")}
        negatives = {entry.word for entry in weights.entries_by_sign("negative")}
        assert positives == {"sony", "7.99"}
        assert negatives == {"digital", "nikon"}
        with pytest.raises(ValueError):
            weights.entries_by_sign("either")

    def test_attribute_importance_pools_sides(self, toy_pair):
        importance = self._weights(toy_pair).attribute_importance()
        assert importance["name"] == pytest.approx(0.4 + 0.1 + 0.3)
        assert importance["price"] == pytest.approx(0.05)

    def test_removal_pair(self, toy_pair):
        weights = self._weights(toy_pair)
        reduced = weights.removal_pair("positive")
        assert "sony" not in reduced.left["name"]
        assert "digital" in reduced.left["name"]
        assert "7.99" not in reduced.right["price"]

    def test_top(self, toy_pair):
        top = self._weights(toy_pair).top(2)
        assert [entry.word for entry in top] == ["sony", "nikon"]


class TestLandmarkExplanation:
    def test_original_entries_exclude_injected(self, double_dual):
        side = double_dual.left_landmark
        entries = side.original_entries()
        assert all(entry.side == "right" for entry in entries)
        own_token_count = sum(1 for injected in side.instance.injected if not injected)
        assert len(entries) == own_token_count

    def test_top_tokens_signs(self, double_dual):
        side = double_dual.left_landmark
        for _, _, weight, _ in side.top_tokens(10, sign="positive"):
            assert weight > 0
        for _, _, weight, _ in side.top_tokens(10, sign="negative"):
            assert weight < 0

    def test_top_tokens_exclude_injected(self, double_dual):
        side = double_dual.left_landmark
        rows = side.top_tokens(100, include_injected=False)
        assert all(not injected for *_, injected in rows)

    def test_apply_removal_positive_strips_positive_tokens(self, single_dual):
        side = single_dual.left_landmark
        reduced = side.apply_removal("positive")
        positive_words = {
            word for word, _, weight, _ in side.top_tokens(100, sign="positive")
        }
        remaining = " ".join(reduced.entity(side.varying_side).values()).split()
        assert not positive_words & set(remaining)

    def test_apply_removal_bad_sign(self, single_dual):
        with pytest.raises(ValueError):
            single_dual.left_landmark.apply_removal("both")

    def test_attribute_importance_injected_toggle(self, double_dual):
        side = double_dual.left_landmark
        with_injected = side.attribute_importance(include_injected=True)
        without = side.attribute_importance(include_injected=False)
        assert sum(with_injected.values()) >= sum(without.values())

    def test_render(self, single_dual):
        text = single_dual.left_landmark.render()
        assert "landmark=left" in text


class TestDualExplanation:
    def test_combined_covers_every_original_token(self, single_dual, match_pair):
        from repro.text.tokenize import Tokenizer

        tokenizer = Tokenizer()
        combined = single_dual.combined()
        expected = 0
        for side in ("left", "right"):
            expected += len(tokenizer.tokenize_entity(match_pair.entity(side)))
        assert len(combined) == expected

    def test_combined_sides_swap(self, single_dual):
        combined = single_dual.combined()
        left_entries = [e for e in combined.entries if e.side == "left"]
        # Left tokens must come from the right-landmark explanation.
        right_landmark_words = {
            token.word for token in single_dual.right_landmark.instance.tokens
        }
        assert {entry.word for entry in left_entries} <= right_landmark_words

    def test_for_landmark(self, single_dual):
        assert single_dual.for_landmark("left") is single_dual.left_landmark
        assert single_dual.for_landmark("right") is single_dual.right_landmark
        with pytest.raises(ValueError):
            single_dual.for_landmark("both")

    def test_generation_property(self, single_dual, double_dual):
        assert single_dual.generation == GENERATION_SINGLE
        assert double_dual.generation == GENERATION_DOUBLE

    def test_attribute_importance_covers_schema(self, single_dual, match_pair):
        importance = single_dual.attribute_importance()
        assert set(importance) == set(match_pair.schema.attributes)

    def test_render_contains_both_sides(self, single_dual):
        text = single_dual.render()
        assert "landmark=left" in text
        assert "landmark=right" in text

    def test_mismatched_sides_rejected(self, single_dual):
        from repro.core.explanation import DualExplanation

        with pytest.raises(ExplanationError):
            DualExplanation(
                pair=single_dual.pair,
                left_landmark=single_dual.right_landmark,
                right_landmark=single_dual.left_landmark,
            )
