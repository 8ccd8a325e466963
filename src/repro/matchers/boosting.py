"""Gradient-boosted decision stumps over similarity features.

A third model family for the matcher zoo: non-linear, non-differentiable,
tree-based — the kind of model (think XGBoost-style EM matchers) for which
post-hoc explainers are the *only* option, since there are no gradients
and no linear coefficients to read.  Landmark Explanation treats it as the
same black box as everything else.

The implementation is classic gradient boosting with the logistic loss:

* ``F₀`` is the weighted log-odds prior;
* each round fits a depth-1 regression tree (a *stump*) to the negative
  gradient ``y − p`` by exhaustive search over per-feature quantile
  thresholds;
* leaf values are Newton steps ``Σg / Σp(1−p)`` (clipped), scaled by the
  learning rate.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.base import EntityMatcher
from repro.matchers.features import FeatureConfig, PairFeatureExtractor
from repro.matchers.logistic import _sigmoid

#: Newton leaf values are clipped to this magnitude for stability.
_MAX_LEAF = 4.0


@dataclass(frozen=True)
class Stump:
    """One depth-1 tree: ``x[feature] <= threshold ? left : right``."""

    feature: int
    threshold: float
    left_value: float
    right_value: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        goes_left = features[:, self.feature] <= self.threshold
        return np.where(goes_left, self.left_value, self.right_value)


class GradientBoostedStumpsMatcher(EntityMatcher):
    """Boosted-stump classifier on per-attribute similarity features."""

    def __init__(
        self,
        n_stumps: int = 80,
        learning_rate: float = 0.3,
        n_thresholds: int = 12,
        balanced: bool = True,
        feature_config: FeatureConfig | None = None,
    ) -> None:
        if n_stumps < 1:
            raise ValueError(f"n_stumps must be >= 1, got {n_stumps}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if n_thresholds < 1:
            raise ValueError(f"n_thresholds must be >= 1, got {n_thresholds}")
        self.n_stumps = n_stumps
        self.learning_rate = learning_rate
        self.n_thresholds = n_thresholds
        self.balanced = balanced
        self.feature_config = feature_config
        self.extractor: PairFeatureExtractor | None = None
        self.prior_: float = 0.0
        self.stumps_: list[Stump] = []

    # ------------------------------------------------------------------

    def _candidate_thresholds(self, features: np.ndarray) -> list[np.ndarray]:
        """Quantile thresholds per feature (deduplicated)."""
        quantiles = np.linspace(0.05, 0.95, self.n_thresholds)
        candidates = []
        for column in features.T:
            candidates.append(np.unique(np.quantile(column, quantiles)))
        return candidates

    @staticmethod
    def _leaf_value(gradient_sum: float, curvature_sum: float) -> float:
        if curvature_sum <= 1e-12:
            return 0.0
        return float(np.clip(gradient_sum / curvature_sum, -_MAX_LEAF, _MAX_LEAF))

    def _fit_stump(
        self,
        features: np.ndarray,
        gradient: np.ndarray,
        curvature: np.ndarray,
        thresholds: list[np.ndarray],
    ) -> Stump:
        best_gain = -np.inf
        best = None
        total_gradient = float(gradient.sum())
        total_curvature = float(curvature.sum())
        for feature_index, feature_thresholds in enumerate(thresholds):
            column = features[:, feature_index]
            for threshold in feature_thresholds:
                left_mask = column <= threshold
                left_gradient = float(gradient[left_mask].sum())
                left_curvature = float(curvature[left_mask].sum())
                right_gradient = total_gradient - left_gradient
                right_curvature = total_curvature - left_curvature
                if left_curvature <= 1e-12 or right_curvature <= 1e-12:
                    continue
                # Newton gain: Σg²/Σh per leaf (larger = better split).
                gain = (
                    left_gradient**2 / left_curvature
                    + right_gradient**2 / right_curvature
                )
                if gain > best_gain:
                    best_gain = gain
                    best = (
                        feature_index,
                        float(threshold),
                        self._leaf_value(left_gradient, left_curvature),
                        self._leaf_value(right_gradient, right_curvature),
                    )
        if best is None:
            # Degenerate round (constant features): emit a zero stump.
            return Stump(feature=0, threshold=0.0, left_value=0.0, right_value=0.0)
        return Stump(*best)

    def fit(self, dataset: EMDataset) -> "GradientBoostedStumpsMatcher":
        if len(dataset) < 2:
            raise DatasetError("need at least 2 pairs to fit")
        labels = dataset.labels.astype(np.float64)
        if labels.min() == labels.max():
            raise DatasetError("training data contains a single class")
        self.extractor = PairFeatureExtractor(dataset.schema, self.feature_config)
        features = self.extractor.transform(dataset.pairs)

        sample_weights = np.ones(len(labels))
        if self.balanced:
            n_match = labels.sum()
            n_non_match = len(labels) - n_match
            sample_weights[labels == 1] = len(labels) / (2.0 * n_match)
            sample_weights[labels == 0] = len(labels) / (2.0 * n_non_match)

        positive = float((sample_weights * labels).sum())
        negative = float((sample_weights * (1.0 - labels)).sum())
        self.prior_ = float(np.log(max(positive, 1e-12) / max(negative, 1e-12)))

        thresholds = self._candidate_thresholds(features)
        scores = np.full(len(labels), self.prior_)
        self.stumps_ = []
        for _ in range(self.n_stumps):
            probabilities = _sigmoid(scores)
            gradient = sample_weights * (labels - probabilities)
            curvature = sample_weights * probabilities * (1.0 - probabilities)
            stump = self._fit_stump(features, gradient, curvature, thresholds)
            self.stumps_.append(stump)
            scores = scores + self.learning_rate * stump.predict(features)
        return self

    # ------------------------------------------------------------------

    def _score_features(self, features: np.ndarray) -> np.ndarray:
        # Stump predictions are np.where lookups — row-independent, so
        # scores are bit-identical whatever batch shape carries a row.
        scores = np.full(features.shape[0], self.prior_)
        for stump in self.stumps_:
            scores += self.learning_rate * stump.predict(features)
        return _sigmoid(scores)

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        if self.extractor is None or not self.stumps_:
            raise ModelNotFittedError(
                "GradientBoostedStumpsMatcher used before fit()"
            )
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return self._score_features(self.extractor.transform(pairs))

    def predict_proba_columnar(self, batch) -> np.ndarray:
        if self.extractor is None or not self.stumps_:
            raise ModelNotFittedError(
                "GradientBoostedStumpsMatcher used before fit()"
            )
        if batch.n_rows == 0:
            return np.empty(0, dtype=np.float64)
        return self._score_features(self.extractor.transform_columnar(batch))

    def feature_usage(self) -> dict[str, int]:
        """How often each feature was chosen by a stump (a crude global
        importance, handy for sanity-checking against Table 3)."""
        extractor = self.extractor
        if extractor is None:
            raise ModelNotFittedError(
                "GradientBoostedStumpsMatcher used before fit()"
            )
        names = extractor.feature_names
        usage: dict[str, int] = {}
        for stump in self.stumps_:
            name = names[stump.feature]
            usage[name] = usage.get(name, 0) + 1
        return usage
