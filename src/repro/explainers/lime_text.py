"""From-scratch LIME for token-level instances.

The explainer is *reconstruction-agnostic*: it samples perturbation masks,
asks a caller-supplied ``predict_masks`` function for the black-box match
probability of every mask, and fits a kernel-weighted linear surrogate.
Everything that knows how to turn a mask back into a record pair (pair
reconstruction + model invocation, the paper's *Dataset reconstruction*)
lives with the caller — :class:`repro.core.landmark.LandmarkExplainer` or
the Mojito baselines.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.explainers.base import (
    Explanation,
    PredictMasksFn,
    checked_names,
    checked_predict,
)
from repro.explainers.perturbation import sample_masks
from repro.obs.tracing import trace
from repro.surrogate.kernels import (
    DEFAULT_KERNEL_WIDTH,
    cosine_distance_to_ones,
    exponential_kernel,
)
from repro.surrogate.linear_model import WeightedRidge


@dataclass(frozen=True)
class LimeConfig:
    """Hyper-parameters of the surrogate fit.

    ``n_samples`` is the perturbation budget (model calls per explanation).
    The surrogate is a weighted ridge over *every* token: the paper's
    evaluations need a weight for each one.
    """

    n_samples: int = 256
    kernel_width: float = DEFAULT_KERNEL_WIDTH
    alpha: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ConfigurationError(f"n_samples must be >= 2, got {self.n_samples}")


class LimeTextExplainer:
    """LIME over a token list, with pluggable reconstruction."""

    def __init__(self, config: LimeConfig | None = None) -> None:
        self.config = config or LimeConfig()

    def explain(
        self,
        feature_names: Sequence[str],
        predict_masks: PredictMasksFn,
        rng: np.random.Generator | None = None,
    ) -> Explanation:
        """Explain one instance given its interpretable feature names.

        *predict_masks* receives the full mask matrix (first row all ones)
        and must return one probability per row.  Callers that route it
        through a :class:`repro.core.engine.PredictionEngine` still see
        the full matrix here — dedup and caching happen behind the
        callable and never change the returned probabilities.
        """
        config = self.config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        names = checked_names(feature_names)
        d = len(names)

        masks = sample_masks(d, config.n_samples, rng)
        probabilities = checked_predict(predict_masks, masks)

        with trace.span(
            "surrogate_fit",
            surrogate="ridge",
            n_samples=int(masks.shape[0]),
            n_features=d,
        ):
            distances = cosine_distance_to_ones(masks)
            sample_weights = exponential_kernel(distances, config.kernel_width)
            # Column-major: the ridge's matmuls round differently on a
            # row-major copy, and stored weights were fitted on this one.
            features = masks.astype(np.float64, order="F")
            model = WeightedRidge(alpha=config.alpha)
            model.fit(features, probabilities, sample_weights)
            assert model.coef_ is not None
            surrogate_at_original = float(np.ones(d) @ model.coef_ + model.intercept_)
            score = model.score(features, probabilities, sample_weights)

        return Explanation(
            feature_names=names,
            weights=model.coef_,
            intercept=float(model.intercept_),
            score=float(score),
            model_probability=float(probabilities[0]),
            surrogate_probability=surrogate_at_original,
            n_samples=config.n_samples,
            metadata={
                "kernel_width": config.kernel_width,
                "surrogate": "ridge",
                "selected": list(range(d)),
            },
        )
