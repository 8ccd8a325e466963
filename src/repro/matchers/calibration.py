"""Decision-threshold tuning and probability calibration.

The paper repeatedly observes that its results shift with the decision
threshold ("If we pushed the decision threshold to 0.4 … Landmark
Explanation would obtain a better performance in 10/12 datasets").  This
module makes the threshold a first-class, tunable object:

* :func:`tune_threshold` — grid-search the threshold that maximizes a
  chosen metric (F1 by default) on labelled data;
* :class:`PlattCalibrator` — one-dimensional logistic recalibration of a
  matcher's scores (Platt scaling), useful when a matcher's probabilities
  are saturated, which is exactly the regime that distorts MAE-style
  explanation metrics (see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.exceptions import ConfigurationError, ModelNotFittedError
from repro.matchers.base import EntityMatcher, sigmoid
from repro.matchers.evaluate import quality_from_predictions


@dataclass(frozen=True)
class ThresholdChoice:
    """The outcome of a threshold sweep."""

    threshold: float
    score: float
    metric: str
    sweep: tuple[tuple[float, float], ...]  # (threshold, score) pairs

    def render(self) -> str:
        lines = [f"best {self.metric}={self.score:.3f} at threshold {self.threshold:.2f}"]
        lines.extend(
            f"  {threshold:.2f}: {score:.3f}" for threshold, score in self.sweep
        )
        return "\n".join(lines)


def tune_threshold(
    matcher: EntityMatcher,
    dataset: EMDataset,
    metric: str = "f1",
    grid: Sequence[float] | None = None,
) -> ThresholdChoice:
    """Pick the decision threshold maximizing *metric* on *dataset*.

    Ties break toward 0.5 (the conventional default), so tuning never
    drifts from the default without evidence.
    """
    if metric not in ("f1", "accuracy", "precision", "recall"):
        raise ConfigurationError(f"unknown metric {metric!r}")
    if grid is None:
        grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    probabilities = matcher.predict_proba(dataset.pairs)
    labels = dataset.labels
    sweep = []
    for threshold in grid:
        if not 0.0 < threshold < 1.0:
            raise ConfigurationError(f"grid threshold {threshold} not in (0, 1)")
        quality = quality_from_predictions(labels, probabilities >= threshold)
        sweep.append((float(threshold), float(getattr(quality, metric))))
    best_score = max(score for _, score in sweep)
    winners = [threshold for threshold, score in sweep if score == best_score]
    best_threshold = min(winners, key=lambda threshold: abs(threshold - 0.5))
    return ThresholdChoice(
        threshold=best_threshold,
        score=best_score,
        metric=metric,
        sweep=tuple(sweep),
    )


class PlattCalibrator(EntityMatcher):
    """Platt scaling: ``p' = σ(a · logit(p) + b)`` around a base matcher.

    Wraps any fitted matcher and re-learns a 1-D logistic map from the
    matcher's scores to labels.  The wrapper is itself an
    :class:`EntityMatcher`, so explainers and evaluations use it
    transparently.
    """

    def __init__(self, base: EntityMatcher, max_iter: int = 100, tol: float = 1e-10):
        self.base = base
        self.max_iter = max_iter
        self.tol = tol
        self.a_: float | None = None
        self.b_: float = 0.0

    @staticmethod
    def _logit(probabilities: np.ndarray) -> np.ndarray:
        clipped = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
        return np.log(clipped / (1.0 - clipped))

    def fit(self, dataset: EMDataset) -> "PlattCalibrator":
        """Fit the (a, b) map on *dataset* (the base matcher must be fitted)."""
        scores = self._logit(self.base.predict_proba(dataset.pairs))
        # Platt's smoothed targets guard against overconfidence on the
        # training labels.
        labels = dataset.labels.astype(np.float64)
        n_positive = labels.sum()
        n_negative = len(labels) - n_positive
        targets = np.where(
            labels == 1.0,
            (n_positive + 1.0) / (n_positive + 2.0),
            1.0 / (n_negative + 2.0),
        )
        a, b = 1.0, 0.0
        for _ in range(self.max_iter):
            logits = a * scores + b
            probabilities = sigmoid(logits)
            gradient_a = float(np.sum((probabilities - targets) * scores))
            gradient_b = float(np.sum(probabilities - targets))
            curvature = probabilities * (1.0 - probabilities)
            h_aa = float(np.sum(curvature * scores * scores)) + 1e-12
            h_ab = float(np.sum(curvature * scores))
            h_bb = float(np.sum(curvature)) + 1e-12
            determinant = h_aa * h_bb - h_ab * h_ab
            if abs(determinant) < 1e-18:
                break
            step_a = (h_bb * gradient_a - h_ab * gradient_b) / determinant
            step_b = (h_aa * gradient_b - h_ab * gradient_a) / determinant
            a -= step_a
            b -= step_b
            if max(abs(step_a), abs(step_b)) < self.tol:
                break
        self.a_, self.b_ = a, b
        return self

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        if self.a_ is None:
            raise ModelNotFittedError("PlattCalibrator used before fit()")
        scores = self._logit(self.base.predict_proba(pairs))
        return sigmoid(self.a_ * scores + self.b_)
