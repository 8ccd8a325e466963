"""The weighted linear surrogate: closed-form ridge regression.

The model minimizes a sample-weighted squared loss plus a penalty::

    Σᵢ wᵢ (yᵢ − β₀ − xᵢβ)²  +  α ‖β‖²

The intercept is never penalized.  This is the "surrogate model creation"
block of the explainer pipeline: coefficients of the fitted model *are* the
explanation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelNotFittedError


def _check_inputs(
    features: np.ndarray, target: np.ndarray, sample_weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if target.shape != (features.shape[0],):
        raise ValueError(
            f"target shape {target.shape} incompatible with features "
            f"{features.shape}"
        )
    if sample_weights is None:
        sample_weights = np.ones(features.shape[0])
    else:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != (features.shape[0],):
            raise ValueError(
                f"sample_weights shape {sample_weights.shape} incompatible "
                f"with features {features.shape}"
            )
        if np.any(sample_weights < 0):
            raise ValueError("sample_weights must be non-negative")
    return features, target, sample_weights


class WeightedRidge:
    """Closed-form sample-weighted ridge regression."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(
        self,
        features: np.ndarray,
        target: np.ndarray,
        sample_weights: np.ndarray | None = None,
    ) -> "WeightedRidge":
        features, target, sample_weights = _check_inputs(
            features, target, sample_weights
        )
        n_features = features.shape[1]
        if n_features == 0:
            self.coef_ = np.empty(0)
            total = sample_weights.sum()
            self.intercept_ = float(
                (sample_weights * target).sum() / total if total > 0 else 0.0
            )
            return self
        # Weighted centring removes the intercept from the normal equations.
        total = sample_weights.sum()
        if total <= 0:
            raise ValueError("sample_weights sum to zero")
        feature_means = (sample_weights[:, None] * features).sum(axis=0) / total
        target_mean = float((sample_weights * target).sum() / total)
        centred_features = features - feature_means
        centred_target = target - target_mean
        weighted = centred_features * sample_weights[:, None]
        gram = weighted.T @ centred_features + self.alpha * np.eye(n_features)
        moment = weighted.T @ centred_target
        try:
            coef = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(gram, moment, rcond=None)[0]
        self.coef_ = coef
        self.intercept_ = target_mean - float(feature_means @ coef)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise ModelNotFittedError("WeightedRidge used before fit()")
        features = np.asarray(features, dtype=np.float64)
        return features @ self.coef_ + self.intercept_

    def score(
        self,
        features: np.ndarray,
        target: np.ndarray,
        sample_weights: np.ndarray | None = None,
    ) -> float:
        """Weighted R²: how much of the black box the surrogate captures."""
        features, target, sample_weights = _check_inputs(
            features, target, sample_weights
        )
        predictions = self.predict(features)
        residual = np.sum(sample_weights * (target - predictions) ** 2)
        mean = (sample_weights * target).sum() / sample_weights.sum()
        total = np.sum(sample_weights * (target - mean) ** 2)
        if total == 0.0:
            return 1.0 if residual == 0.0 else 0.0
        return 1.0 - residual / total
