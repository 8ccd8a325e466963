"""Tests for the from-scratch LIME explainer.

The strongest check available for any LIME implementation: when the black
box *is* a (noisy) linear function of the mask, the surrogate must recover
its coefficients.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ExplanationError
from repro.explainers.anchors import AnchorsTextExplainer
from repro.explainers.kernel_shap import KernelShapExplainer
from repro.explainers.lime_text import LimeConfig, LimeTextExplainer


def linear_black_box(coef, intercept=0.1):
    coef = np.asarray(coef)

    def predict_masks(masks):
        return masks @ coef + intercept

    return predict_masks


NAMES = ("alpha", "beta", "gamma", "delta")


class TestConfigValidation:
    def test_bad_n_samples(self):
        with pytest.raises(ConfigurationError):
            LimeConfig(n_samples=1)


class TestRecovery:
    def test_recovers_linear_coefficients(self):
        coef = np.array([0.4, -0.3, 0.2, 0.0])
        explainer = LimeTextExplainer(LimeConfig(n_samples=512, alpha=1e-6, seed=0))
        explanation = explainer.explain(NAMES, linear_black_box(coef))
        assert np.allclose(explanation.weights, coef, atol=0.02)

    def test_model_probability_is_first_row(self):
        coef = np.array([0.1, 0.1, 0.1, 0.1])
        explainer = LimeTextExplainer(LimeConfig(n_samples=64, seed=0))
        explanation = explainer.explain(NAMES, linear_black_box(coef, intercept=0.2))
        assert explanation.model_probability == pytest.approx(0.6)

    def test_surrogate_probability_close_to_model_on_linear_box(self):
        coef = np.array([0.2, -0.1, 0.05, 0.15])
        explainer = LimeTextExplainer(LimeConfig(n_samples=512, alpha=1e-6, seed=0))
        explanation = explainer.explain(NAMES, linear_black_box(coef))
        assert explanation.surrogate_probability == pytest.approx(
            explanation.model_probability, abs=0.01
        )

    def test_r2_high_on_linear_box(self):
        coef = np.array([0.3, -0.2, 0.1, 0.05])
        explainer = LimeTextExplainer(LimeConfig(n_samples=256, alpha=1e-6, seed=0))
        explanation = explainer.explain(NAMES, linear_black_box(coef))
        assert explanation.score > 0.99

#: Every explainer with the ``explain(feature_names, predict_masks, rng)``
#: interface guards its inputs through one shared check.
EXPLAINERS = {
    "lime": lambda: LimeTextExplainer(LimeConfig(n_samples=8, seed=0)),
    "shap": lambda: KernelShapExplainer(n_samples=8, seed=0),
    "anchors": lambda: AnchorsTextExplainer(n_samples_per_candidate=4, seed=0),
}


class TestContract:
    @pytest.mark.parametrize("kind", EXPLAINERS)
    def test_duplicate_names_rejected(self, kind):
        with pytest.raises(ExplanationError):
            EXPLAINERS[kind]().explain(("a", "a"), linear_black_box([0.1, 0.1]))

    @pytest.mark.parametrize("kind", EXPLAINERS)
    def test_empty_names_rejected(self, kind):
        with pytest.raises(ExplanationError):
            EXPLAINERS[kind]().explain((), lambda masks: np.zeros(len(masks)))

    @pytest.mark.parametrize(
        "bad_box",
        [lambda masks: np.zeros(3), lambda masks: np.zeros((len(masks), 2))],
        ids=["wrong_length", "two_dimensional"],
    )
    @pytest.mark.parametrize("kind", EXPLAINERS)
    def test_bad_prediction_shape_rejected(self, kind, bad_box):
        with pytest.raises(ExplanationError):
            EXPLAINERS[kind]().explain(("a", "b"), bad_box)

    def test_deterministic_given_seed(self):
        coef = np.array([0.3, -0.1, 0.2, 0.0])
        config = LimeConfig(n_samples=64, seed=42)
        a = LimeTextExplainer(config).explain(NAMES, linear_black_box(coef))
        b = LimeTextExplainer(config).explain(NAMES, linear_black_box(coef))
        assert np.array_equal(a.weights, b.weights)

    def test_metadata_records_settings(self):
        explainer = LimeTextExplainer(LimeConfig(n_samples=16, seed=0))
        explanation = explainer.explain(NAMES, linear_black_box([0.1] * 4))
        assert explanation.metadata["surrogate"] == "ridge"
        assert explanation.n_samples == 16
