"""Tests for the weighted ridge surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelNotFittedError
from repro.surrogate.linear_model import WeightedRidge


def linear_problem(seed=0, n=200, d=5, noise=0.01):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    coef = rng.normal(size=d)
    intercept = 0.7
    target = features @ coef + intercept + noise * rng.normal(size=n)
    return features, target, coef, intercept


class TestWeightedRidge:
    def test_recovers_linear_function(self):
        features, target, coef, intercept = linear_problem()
        model = WeightedRidge(alpha=1e-8).fit(features, target)
        assert np.allclose(model.coef_, coef, atol=0.05)
        assert model.intercept_ == pytest.approx(intercept, abs=0.05)

    def test_alpha_shrinks_coefficients(self):
        features, target, *_ = linear_problem()
        weak = WeightedRidge(alpha=1e-6).fit(features, target)
        strong = WeightedRidge(alpha=1e4).fit(features, target)
        assert np.abs(strong.coef_).sum() < np.abs(weak.coef_).sum()

    def test_sample_weights_focus_the_fit(self):
        # Two clusters with different local slopes; weighting one cluster
        # should recover that cluster's slope.
        x = np.concatenate([np.linspace(0, 1, 50), np.linspace(10, 11, 50)])
        y = np.concatenate([2 * x[:50], -3 * x[50:]])
        features = x[:, None]
        weights_first = np.concatenate([np.ones(50), np.zeros(50) + 1e-9])
        model = WeightedRidge(alpha=1e-8).fit(features, y, weights_first)
        assert model.coef_[0] == pytest.approx(2.0, abs=0.01)

    def test_intercept_not_penalized(self):
        target = np.full(50, 100.0)
        features = np.random.default_rng(0).normal(size=(50, 3))
        model = WeightedRidge(alpha=1e6).fit(features, target)
        assert model.intercept_ == pytest.approx(100.0, abs=0.5)

    def test_zero_features(self):
        model = WeightedRidge().fit(np.empty((4, 0)), np.array([1.0, 2, 3, 4]))
        assert model.intercept_ == pytest.approx(2.5)
        assert model.predict(np.empty((2, 0))).tolist() == [2.5, 2.5]

    def test_predict_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            WeightedRidge().predict(np.zeros((1, 2)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            WeightedRidge(alpha=-1)

    def test_negative_sample_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedRidge().fit(
                np.ones((2, 1)), np.ones(2), np.array([1.0, -1.0])
            )

    def test_score_perfect_fit(self):
        features, target, *_ = linear_problem(noise=0.0)
        model = WeightedRidge(alpha=1e-10).fit(features, target)
        assert model.score(features, target) == pytest.approx(1.0, abs=1e-6)

    def test_score_constant_prediction(self):
        target = np.array([1.0, 2.0, 3.0])
        features = np.zeros((3, 1))
        model = WeightedRidge().fit(features, target)
        assert model.score(features, target) == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_prediction_residuals_orthogonal_to_design(self, seed):
        # Normal equations: weighted residuals ⟂ centred columns at alpha→0.
        features, target, *_ = linear_problem(seed=seed, n=60, d=3)
        weights = np.abs(np.random.default_rng(seed).normal(size=60)) + 0.1
        model = WeightedRidge(alpha=1e-10).fit(features, target, weights)
        residual = target - model.predict(features)
        centred = features - (weights[:, None] * features).sum(0) / weights.sum()
        moments = centred.T @ (weights * residual)
        assert np.allclose(moments, 0.0, atol=1e-6)


class TestInputValidation:
    @pytest.mark.parametrize("model_cls", [WeightedRidge])
    def test_dimension_checks(self, model_cls):
        with pytest.raises(ValueError):
            model_cls().fit(np.zeros(5), np.zeros(5))  # 1-D features
        with pytest.raises(ValueError):
            model_cls().fit(np.zeros((5, 2)), np.zeros(4))  # length mismatch
        with pytest.raises(ValueError):
            model_cls().fit(np.zeros((5, 2)), np.zeros(5), np.zeros(4))
