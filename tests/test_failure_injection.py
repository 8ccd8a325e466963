"""Failure injection: misbehaving black boxes must fail loudly, not subtly.

Perturbation explainers sit between the user and an arbitrary model.  When
that model misbehaves — NaN scores, wrong output shapes, exceptions — the
explainer must surface a clear error instead of returning plausible-looking
garbage weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.landmark import LandmarkExplainer
from repro.data.records import EMDataset
from repro.exceptions import ExplanationError
from repro.explainers.anchors import AnchorsTextExplainer
from repro.explainers.kernel_shap import KernelShapExplainer
from repro.explainers.lime_text import LimeConfig, LimeTextExplainer
from repro.matchers.base import EntityMatcher

NAMES = ("a", "b", "c")


class BrokenMatcher(EntityMatcher):
    """A matcher whose predictions misbehave in a configurable way."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def fit(self, dataset: EMDataset) -> "BrokenMatcher":
        return self

    def predict_proba(self, pairs):
        if self.mode == "nan":
            values = np.full(len(pairs), 0.5)
            values[0] = np.nan
            return values
        if self.mode == "inf":
            return np.full(len(pairs), np.inf)
        if self.mode == "wrong_shape":
            return np.zeros((len(pairs), 2))
        if self.mode == "raises":
            raise RuntimeError("model backend exploded")
        raise AssertionError(f"unknown mode {self.mode}")


class TestExplainerValidation:
    def test_lime_rejects_nan_probabilities(self):
        explainer = LimeTextExplainer(LimeConfig(n_samples=8, seed=0))

        def nan_box(masks):
            values = np.full(len(masks), 0.5)
            values[-1] = np.nan
            return values

        with pytest.raises(ExplanationError, match="non-finite"):
            explainer.explain(NAMES, nan_box)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("kind", ["lime", "shap", "anchors"])
    def test_rejects_non_finite_probabilities(self, kind, value):
        explainer = {
            "lime": lambda: LimeTextExplainer(LimeConfig(n_samples=8, seed=0)),
            "shap": lambda: KernelShapExplainer(n_samples=8, seed=0),
            "anchors": lambda: AnchorsTextExplainer(seed=0),
        }[kind]()
        with pytest.raises(ExplanationError, match="non-finite"):
            explainer.explain(NAMES, lambda masks: np.full(len(masks), value))

    def test_shap_rejects_nan_probabilities(self):
        explainer = KernelShapExplainer(n_samples=8, seed=0)
        with pytest.raises(ExplanationError, match="non-finite"):
            explainer.explain(NAMES, lambda masks: np.full(len(masks), np.nan))

    def test_lime_rejects_wrong_shape(self):
        explainer = LimeTextExplainer(LimeConfig(n_samples=8, seed=0))
        with pytest.raises(ExplanationError, match="shape"):
            explainer.explain(NAMES, lambda masks: np.zeros((len(masks), 2)))


class TestLandmarkPropagation:
    """Failures inside the matcher must reach the caller unchanged or as
    ExplanationError — never as silent success."""

    def test_nan_matcher_fails_loudly(self, match_pair):
        explainer = LandmarkExplainer(
            BrokenMatcher("nan"), lime_config=LimeConfig(n_samples=8, seed=0)
        )
        with pytest.raises(ExplanationError):
            explainer.explain(match_pair, "single")

    def test_wrong_shape_matcher_fails_loudly(self, match_pair):
        explainer = LandmarkExplainer(
            BrokenMatcher("wrong_shape"),
            lime_config=LimeConfig(n_samples=8, seed=0),
        )
        with pytest.raises(ExplanationError):
            explainer.explain(match_pair, "single")

    def test_raising_matcher_propagates(self, match_pair):
        explainer = LandmarkExplainer(
            BrokenMatcher("raises"), lime_config=LimeConfig(n_samples=8, seed=0)
        )
        with pytest.raises(RuntimeError, match="exploded"):
            explainer.explain_landmark(match_pair, "left", "single")

    def test_auto_generation_also_guarded(self, match_pair):
        # generation="auto" calls predict_one first; an exploding matcher
        # must not be masked by the resolution step.
        explainer = LandmarkExplainer(
            BrokenMatcher("raises"), lime_config=LimeConfig(n_samples=8, seed=0)
        )
        with pytest.raises(RuntimeError):
            explainer.explain(match_pair)
