"""Tests for the from-scratch logistic regression matcher."""

import numpy as np
import pytest

from repro.data.records import EMDataset, MATCH, NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.base import sigmoid
from repro.matchers.evaluate import evaluate_matcher
from repro.matchers.logistic import LogisticRegressionMatcher


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_are_stable(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(values))

    def test_monotonic(self):
        grid = np.linspace(-5, 5, 50)
        values = sigmoid(grid)
        assert np.all(np.diff(values) > 0)


class TestFitValidation:
    def test_requires_two_pairs(self):
        schema = PairSchema(("name",))
        dataset = EMDataset(
            "one", schema, [RecordPair(schema, {"name": "a"}, {"name": "a"}, MATCH)]
        )
        with pytest.raises(DatasetError):
            LogisticRegressionMatcher().fit(dataset)

    def test_requires_both_classes(self):
        schema = PairSchema(("name",))
        pairs = [
            RecordPair(schema, {"name": f"x{i}"}, {"name": f"x{i}"}, MATCH, i)
            for i in range(5)
        ]
        with pytest.raises(DatasetError, match="single class"):
            LogisticRegressionMatcher().fit(EMDataset("m", schema, pairs))

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionMatcher(l2=-1.0)

    def test_predict_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            LogisticRegressionMatcher().predict_proba([])

    def test_attribute_weights_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            LogisticRegressionMatcher().attribute_weights()


class TestLearning:
    def test_learns_the_benchmark(self, beer_dataset, beer_matcher):
        quality = evaluate_matcher(beer_matcher, beer_dataset)
        assert quality.f1 > 0.8

    def test_probabilities_in_unit_interval(self, beer_dataset, beer_matcher):
        probabilities = beer_matcher.predict_proba(beer_dataset.pairs)
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_matches_score_higher_than_non_matches(self, beer_dataset, beer_matcher):
        probabilities = beer_matcher.predict_proba(beer_dataset.pairs)
        labels = beer_dataset.labels
        assert probabilities[labels == 1].mean() > probabilities[labels == 0].mean() + 0.4

    def test_identical_pair_scores_high(self, beer_dataset, beer_matcher):
        pair = beer_dataset[0]
        identical = pair.with_right(dict(pair.left))
        assert beer_matcher.predict_one(identical) > 0.9

    def test_predict_threshold(self, beer_dataset, beer_matcher):
        strict = beer_matcher.predict(beer_dataset.pairs, threshold=0.99)
        lax = beer_matcher.predict(beer_dataset.pairs, threshold=0.01)
        assert strict.sum() <= lax.sum()

    def test_predict_empty(self, beer_matcher):
        assert beer_matcher.predict_proba([]).shape == (0,)

    def test_determinism(self, beer_dataset):
        a = LogisticRegressionMatcher().fit(beer_dataset)
        b = LogisticRegressionMatcher().fit(beer_dataset)
        assert np.allclose(a.coef_, b.coef_)
        assert a.intercept_ == pytest.approx(b.intercept_)

    def test_stronger_l2_shrinks_weights(self, beer_dataset):
        weak = LogisticRegressionMatcher(l2=0.1).fit(beer_dataset)
        strong = LogisticRegressionMatcher(l2=100.0).fit(beer_dataset)
        assert np.abs(strong.coef_).sum() < np.abs(weak.coef_).sum()

    def test_unbalanced_mode_fits(self, beer_dataset):
        matcher = LogisticRegressionMatcher(balanced=False).fit(beer_dataset)
        quality = evaluate_matcher(matcher, beer_dataset)
        assert quality.accuracy > 0.8

    def test_converges_within_budget(self, beer_matcher):
        assert beer_matcher.n_iter_ <= 50


class TestAttributeIntrospection:
    def test_weights_cover_schema(self, beer_dataset, beer_matcher):
        weights = beer_matcher.attribute_weights()
        assert set(weights) == set(beer_dataset.schema.attributes)
        assert all(value >= 0 for value in weights.values())

    def test_ranking_sorted_by_weight(self, beer_matcher):
        weights = beer_matcher.attribute_weights()
        ranking = beer_matcher.attribute_ranking()
        values = [weights[attribute] for attribute in ranking]
        assert values == sorted(values, reverse=True)

    def test_identity_attribute_ranks_high(self, beer_matcher):
        # beer_name separates matches from same-brewery hard negatives, so
        # the model must weight it heavily.
        ranking = beer_matcher.attribute_ranking()
        assert "beer_name" in ranking[:2]

    def test_feature_names_exposed(self, beer_matcher):
        names = beer_matcher.feature_names
        assert len(names) == len(beer_matcher.coef_)
