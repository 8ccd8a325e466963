"""From-scratch L2-regularized logistic regression (the paper's EM model).

Fitting uses IRLS (Newton-Raphson with the Fisher information matrix): the
feature space is small (|attributes| × |measures|), so each iteration is one
dense ``(d+1) × (d+1)`` solve and convergence takes a handful of steps even
on the 28k-pair datasets.

Features are standardized internally; the reported coefficients live in the
standardized space, which is exactly what the paper's attribute-based
evaluation needs — comparable magnitudes across features, so per-attribute
``Σ|w|`` is a meaningful attribute importance.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.base import EntityMatcher
from repro.matchers.features import FeatureConfig, PairFeatureExtractor


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegressionMatcher(EntityMatcher):
    """Logistic regression over per-attribute similarity features."""

    def __init__(
        self,
        l2: float = 10.0,
        max_iter: int = 50,
        tol: float = 1e-8,
        balanced: bool = True,
        feature_config: FeatureConfig | None = None,
    ) -> None:
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.balanced = balanced
        self.feature_config = feature_config
        self.extractor: PairFeatureExtractor | None = None
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self.n_iter_: int = 0

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, dataset: EMDataset) -> "LogisticRegressionMatcher":
        if len(dataset) < 2:
            raise DatasetError("need at least 2 pairs to fit")
        labels = dataset.labels
        if labels.min() == labels.max():
            raise DatasetError("training data contains a single class")
        self.extractor = PairFeatureExtractor(dataset.schema, self.feature_config)
        features = self.extractor.transform(dataset.pairs)
        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        standardized = (features - self._mean) / self._scale

        sample_weights = np.ones(len(labels), dtype=np.float64)
        if self.balanced:
            # Inverse-frequency weights: the match class is rare in every
            # benchmark dataset and would otherwise be drowned out.
            n_match = labels.sum()
            n_non_match = len(labels) - n_match
            sample_weights[labels == 1] = len(labels) / (2.0 * n_match)
            sample_weights[labels == 0] = len(labels) / (2.0 * n_non_match)

        self.coef_, self.intercept_, self.n_iter_ = self._irls(
            standardized, labels.astype(np.float64), sample_weights
        )
        return self

    def _irls(
        self,
        features: np.ndarray,
        target: np.ndarray,
        sample_weights: np.ndarray,
    ) -> tuple[np.ndarray, float, int]:
        n_samples, n_features = features.shape
        design = np.hstack([np.ones((n_samples, 1)), features])
        weights = np.zeros(n_features + 1)
        # The intercept (column 0) is not regularized.
        ridge = self.l2 * np.eye(n_features + 1)
        ridge[0, 0] = 0.0
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            logits = design @ weights
            probabilities = _sigmoid(logits)
            gradient = design.T @ (sample_weights * (target - probabilities))
            gradient -= ridge @ weights
            curvature = sample_weights * probabilities * (1.0 - probabilities)
            # Floor the curvature so the Hessian stays invertible when the
            # classes separate perfectly (tiny synthetic datasets do that).
            curvature = np.maximum(curvature, 1e-10)
            hessian = design.T @ (design * curvature[:, None]) + ridge
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, gradient, rcond=None)[0]
            weights = weights + step
            if float(np.abs(step).max()) < self.tol:
                break
        return weights[1:], float(weights[0]), iteration

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _require_fitted(self) -> PairFeatureExtractor:
        if self.extractor is None or self.coef_ is None:
            raise ModelNotFittedError("LogisticRegressionMatcher used before fit()")
        return self.extractor

    def _score_features(self, features: np.ndarray) -> np.ndarray:
        standardized = (features - self._mean) / self._scale
        # Row-wise reduction rather than a BLAS matvec: dgemv may pick a
        # different summation order per batch shape, and the prediction
        # engine's bit-for-bit equivalence guarantee needs every row to
        # score identically whatever batch it rides in.
        return _sigmoid((standardized * self.coef_).sum(axis=1) + self.intercept_)

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        extractor = self._require_fitted()
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return self._score_features(extractor.transform(pairs))

    def predict_proba_columnar(self, batch) -> np.ndarray:
        extractor = self._require_fitted()
        if batch.n_rows == 0:
            return np.empty(0, dtype=np.float64)
        return self._score_features(extractor.transform_columnar(batch))

    # ------------------------------------------------------------------
    # Introspection (Table 3 needs this)
    # ------------------------------------------------------------------

    @property
    def feature_names(self) -> list[str]:
        return self._require_fitted().feature_names

    def attribute_weights(self) -> dict[str, float]:
        """Attribute importance: Σ|coef| over each attribute's feature group.

        This is the paper's reading of "the weights given to the dataset
        attributes by the Logistic Regression model".
        """
        extractor = self._require_fitted()
        groups = extractor.attribute_groups()
        assert self.coef_ is not None
        return {
            attribute: float(np.abs(self.coef_[group]).sum())
            for attribute, group in groups.items()
        }

    def attribute_ranking(self) -> list[str]:
        """Attributes sorted by importance, heaviest first."""
        weights = self.attribute_weights()
        return sorted(weights, key=lambda attribute: -weights[attribute])
