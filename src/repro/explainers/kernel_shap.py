"""Kernel SHAP over token masks — a second generic explainer.

The paper presents Landmark Explanation as a *generic* framework: any
post-hoc perturbation explainer can sit in the yellow boxes of Figure 2.
Its experiments couple the framework with LIME; this module provides the
other classic choice, Kernel SHAP (Lundberg & Lee 2017), with the same
``explain(feature_names, predict_masks, rng)`` interface so it drops into
:class:`repro.core.landmark.LandmarkExplainer` unchanged.

Kernel SHAP is weighted linear regression on binary coalitions ``z`` with
the Shapley kernel::

    w(z) = (d - 1) / (C(d, |z|) · |z| · (d - |z|))

which diverges for the empty and full coalitions — those two constraints
(the base rate and the full prediction) are enforced with a large finite
weight.  With enough samples the resulting coefficients approach Shapley
values of the token-presence game.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.exceptions import ConfigurationError
from repro.explainers.base import (
    Explanation,
    PredictMasksFn,
    checked_names,
    checked_predict,
)
from repro.obs.tracing import trace
from repro.surrogate.linear_model import WeightedRidge

#: Finite stand-in for the kernel's infinite weight at |z| ∈ {0, d}.
_ANCHOR_WEIGHT = 1e6


def shapley_kernel_weights(masks: np.ndarray) -> np.ndarray:
    """Shapley kernel weight of every mask row."""
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ValueError(f"masks must be 2-D, got shape {masks.shape}")
    d = masks.shape[1]
    sizes = masks.sum(axis=1).astype(int)
    weights = np.empty(len(sizes), dtype=np.float64)
    for row, size in enumerate(sizes):
        if size == 0 or size == d:
            weights[row] = _ANCHOR_WEIGHT
        else:
            weights[row] = (d - 1) / (comb(d, size) * size * (d - size))
    return weights


class KernelShapExplainer:
    """SHAP-style explainer with the pluggable-reconstruction interface."""

    def __init__(self, n_samples: int = 256, alpha: float = 1e-6, seed: int | None = None):
        if n_samples < 4:
            raise ConfigurationError(f"n_samples must be >= 4, got {n_samples}")
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.n_samples = n_samples
        self.alpha = alpha
        self.seed = seed

    def _sample_masks(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """All-ones + all-zeros anchors, then coalitions of size 1..d-1.

        Sizes are drawn proportionally to the kernel's marginal weight of
        each size (``(d-1)/(k(d-k))`` summed over C(d,k) coalitions), which
        concentrates samples on the small and large coalitions that carry
        the Shapley signal.
        """
        masks = np.ones((self.n_samples, d), dtype=np.int8)
        masks[1] = 0
        if d == 1:
            return masks[:2]
        sizes = np.arange(1, d)
        size_weights = (d - 1) / (sizes * (d - sizes))
        size_weights = size_weights / size_weights.sum()
        for row in range(2, self.n_samples):
            size = int(rng.choice(sizes, p=size_weights))
            active = rng.choice(d, size=size, replace=False)
            masks[row] = 0
            masks[row, active] = 1
        return masks

    def explain(
        self,
        feature_names,
        predict_masks: PredictMasksFn,
        rng: np.random.Generator | None = None,
    ) -> Explanation:
        """Explain one instance; mirrors :class:`LimeTextExplainer.explain`."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        names = checked_names(feature_names)

        masks = self._sample_masks(len(names), rng)
        probabilities = checked_predict(predict_masks, masks)
        with trace.span(
            "surrogate_fit",
            surrogate="kernel_shap",
            n_samples=int(masks.shape[0]),
            n_features=len(names),
        ):
            weights = shapley_kernel_weights(masks)
            model = WeightedRidge(alpha=self.alpha).fit(
                masks.astype(np.float64), probabilities, weights
            )
            assert model.coef_ is not None
            surrogate_at_original = float(model.coef_.sum() + model.intercept_)
        return Explanation(
            feature_names=names,
            weights=model.coef_,
            intercept=float(model.intercept_),
            score=model.score(masks.astype(np.float64), probabilities, weights),
            model_probability=float(probabilities[0]),
            surrogate_probability=surrogate_at_original,
            n_samples=masks.shape[0],
            metadata={"surrogate": "kernel_shap"},
        )
