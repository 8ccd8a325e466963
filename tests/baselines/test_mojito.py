"""Tests for the Mojito Drop / Copy baselines."""

import numpy as np
import pytest

from repro.baselines.mojito import MojitoCopyExplainer, MojitoDropExplainer
from repro.core.columnar import mojito_copy_batch
from repro.exceptions import ConfigurationError, ExplanationError
from repro.explainers.lime_text import LimeConfig


@pytest.fixture(scope="module")
def lime_config():
    return LimeConfig(n_samples=48, seed=0)


@pytest.fixture(scope="module")
def drop(beer_matcher, lime_config):
    return MojitoDropExplainer(beer_matcher, lime_config, seed=0)


@pytest.fixture(scope="module")
def copy(beer_matcher, lime_config):
    return MojitoCopyExplainer(beer_matcher, lime_config, seed=0)


class TestMojitoDrop:
    def test_covers_tokens_of_both_sides(self, drop, match_pair):
        explanation = drop.explain(match_pair)
        sides = {entry.side for entry in explanation.token_weights.entries}
        assert sides == {"left", "right"}

    def test_token_count_matches_record(self, drop, match_pair):
        from repro.text.tokenize import Tokenizer

        tokenizer = Tokenizer()
        expected = sum(
            len(tokenizer.tokenize_entity(match_pair.entity(side)))
            for side in ("left", "right")
        )
        explanation = drop.explain(match_pair)
        assert len(explanation.token_weights) == expected

    def test_model_probability_anchored_at_original(
        self, drop, beer_matcher, match_pair
    ):
        explanation = drop.explain(match_pair)
        assert explanation.explanation.model_probability == pytest.approx(
            beer_matcher.predict_one(match_pair)
        )

    def test_deterministic(self, drop, match_pair):
        a = drop.explain(match_pair)
        b = drop.explain(match_pair)
        assert np.array_equal(a.explanation.weights, b.explanation.weights)

    def test_removal_pair_strips_exactly_the_positive_tokens(self, drop, match_pair):
        from repro.text.tokenize import Tokenizer

        tokenizer = Tokenizer()
        explanation = drop.explain(match_pair)
        n_positive = len(explanation.token_weights.entries_by_sign("positive"))
        reduced = explanation.removal_pair("positive")

        def count_tokens(pair):
            return sum(
                len(tokenizer.tokenize_entity(pair.entity(side)))
                for side in ("left", "right")
            )

        assert count_tokens(reduced) == count_tokens(match_pair) - n_positive
        assert n_positive > 0  # a true match has positive evidence

    def test_render(self, drop, match_pair):
        assert "mojito_drop" in drop.explain(match_pair).render()


class TestMojitoCopy:
    def test_features_are_attributes(self, copy, non_match_pair):
        explanation = copy.explain(non_match_pair)
        assert explanation.explanation.feature_names == (
            non_match_pair.schema.attributes
        )

    def test_all_tokens_of_attribute_share_weight(self, copy, non_match_pair):
        explanation = copy.explain(non_match_pair)
        by_attribute: dict[str, set[float]] = {}
        for entry in explanation.token_weights.entries:
            by_attribute.setdefault(entry.attribute, set()).add(round(entry.weight, 12))
        for weights in by_attribute.values():
            assert len(weights) == 1

    def test_copy_direction_left_to_right(self, beer_matcher, lime_config, non_match_pair):
        explainer = MojitoCopyExplainer(
            beer_matcher, lime_config, copy_from="left", seed=0
        )
        masks = np.zeros((1, len(non_match_pair.schema)), dtype=np.int8)
        (rebuilt,) = mojito_copy_batch(
            non_match_pair, explainer.copy_from, masks
        ).pairs()
        assert dict(rebuilt.right) == dict(non_match_pair.left)
        assert dict(rebuilt.left) == dict(non_match_pair.left)

    def test_copy_direction_right_to_left(self, beer_matcher, lime_config, non_match_pair):
        explainer = MojitoCopyExplainer(
            beer_matcher, lime_config, copy_from="right", seed=0
        )
        assert explainer.copy_to == "left"
        masks = np.zeros((1, len(non_match_pair.schema)), dtype=np.int8)
        (rebuilt,) = mojito_copy_batch(
            non_match_pair, explainer.copy_from, masks
        ).pairs()
        assert dict(rebuilt.left) == dict(non_match_pair.right)
        assert dict(rebuilt.right) == dict(non_match_pair.right)

    def test_invalid_direction(self, beer_matcher, lime_config):
        with pytest.raises(ConfigurationError):
            MojitoCopyExplainer(beer_matcher, lime_config, copy_from="top")

    def test_discriminative_attributes_weigh_negative(
        self, copy, beer_matcher, non_match_pair
    ):
        # Keeping the original (non-copied) value of the most discriminative
        # attribute holds the record in the non-match class, so its weight
        # toward the match probability must be negative.
        explanation = copy.explain(non_match_pair)
        weights = explanation.explanation.as_dict()
        assert min(weights.values()) < 0

    def test_anchored_at_original_record(self, copy, beer_matcher, non_match_pair):
        explanation = copy.explain(non_match_pair)
        assert explanation.explanation.model_probability == pytest.approx(
            beer_matcher.predict_one(non_match_pair)
        )


class TestMojitoAttributeDrop:
    @pytest.fixture(scope="class")
    def attr_drop(self, beer_matcher, lime_config):
        from repro.baselines.mojito import MojitoAttributeDropExplainer

        return MojitoAttributeDropExplainer(beer_matcher, lime_config, seed=0)

    def test_features_are_side_attribute_cells(self, attr_drop, non_match_pair):
        explanation = attr_drop.explain(non_match_pair)
        for name in explanation.explanation.feature_names:
            side, attribute = name.split(".", 1)
            assert side in ("left", "right")
            assert attribute in non_match_pair.schema.attributes

    def test_skips_empty_cells(self, attr_drop, beer_matcher, non_match_pair):
        gappy = non_match_pair.with_left(
            {**dict(non_match_pair.left), "style": ""}
        )
        explanation = attr_drop.explain(gappy)
        assert "left.style" not in explanation.explanation.feature_names

    def test_tokens_of_a_cell_share_its_weight(self, attr_drop, non_match_pair):
        explanation = attr_drop.explain(non_match_pair)
        by_cell: dict[tuple[str, str], set[float]] = {}
        for entry in explanation.token_weights.entries:
            by_cell.setdefault((entry.side, entry.attribute), set()).add(
                round(entry.weight, 12)
            )
        for weights in by_cell.values():
            assert len(weights) == 1

    def test_weight_distribution_sums_to_cell_weight(
        self, attr_drop, non_match_pair
    ):
        explanation = attr_drop.explain(non_match_pair)
        cell_weights = explanation.explanation.as_dict()
        totals: dict[str, float] = {}
        for entry in explanation.token_weights.entries:
            key = f"{entry.side}.{entry.attribute}"
            totals[key] = totals.get(key, 0.0) + entry.weight
        for key, total in totals.items():
            assert total == pytest.approx(cell_weights[key], abs=1e-9)

    def test_anchored_at_original(self, attr_drop, beer_matcher, non_match_pair):
        explanation = attr_drop.explain(non_match_pair)
        assert explanation.explanation.model_probability == pytest.approx(
            beer_matcher.predict_one(non_match_pair)
        )

    def test_empty_record_rejected(self, attr_drop, beer_dataset):
        from repro.exceptions import ExplanationError

        empty = beer_dataset[0].with_left(
            {a: "" for a in beer_dataset.schema.attributes}
        ).with_right({a: "" for a in beer_dataset.schema.attributes})
        with pytest.raises(ExplanationError):
            attr_drop.explain(empty)
