"""What every explainer shares: its interface, its input checks and the
:class:`Explanation` container.

An explanation is the fitted surrogate read back as data: one weight per
interpretable feature, plus enough diagnostics (surrogate R², black-box and
surrogate probabilities at the original instance) to judge how much to
trust it.

Every explainer takes ``(feature_names, predict_masks, rng)``;
:func:`checked_names` and :func:`checked_predict` guard both inputs the
same way for all of them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ExplanationError

#: A function mapping a (n_samples, n_tokens) binary mask matrix to the
#: black-box match probability of each reconstructed instance.
PredictMasksFn = Callable[[np.ndarray], np.ndarray]


def checked_names(feature_names: Sequence[str]) -> tuple[str, ...]:
    """The interpretable feature names as a tuple: non-empty and unique."""
    names = tuple(feature_names)
    if not names:
        raise ExplanationError("cannot explain an instance with zero features")
    if len(set(names)) != len(names):
        raise ExplanationError("interpretable feature names must be unique")
    return names


def checked_predict(predict_masks: PredictMasksFn, masks: np.ndarray) -> np.ndarray:
    """One finite probability per mask row, or :class:`ExplanationError`.

    A surrogate fit (or an anchor's precision) over NaN or infinite
    probabilities would silently produce garbage, so it is refused here.
    """
    probabilities = np.asarray(predict_masks(masks), dtype=np.float64)
    if probabilities.shape != (masks.shape[0],):
        raise ExplanationError(
            f"predict_masks returned shape {probabilities.shape}, "
            f"expected ({masks.shape[0]},)"
        )
    if not np.all(np.isfinite(probabilities)):
        raise ExplanationError(
            "black-box model returned non-finite probabilities; the "
            "explanation would silently be garbage"
        )
    return probabilities


@dataclass(frozen=True)
class Explanation:
    """Linear surrogate coefficients over interpretable features.

    ``feature_names[i]`` is the i-th interpretable feature (a prefixed token
    string for token-level explainers, an attribute name for Mojito Copy)
    and ``weights[i]`` its coefficient toward the *match* probability:
    positive weights push the record toward the matching class.
    """

    feature_names: tuple[str, ...]
    weights: np.ndarray
    intercept: float
    score: float
    model_probability: float
    surrogate_probability: float
    n_samples: int
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (len(self.feature_names),):
            raise ExplanationError(
                f"{len(self.feature_names)} features but weight shape "
                f"{weights.shape}"
            )

    def __len__(self) -> int:
        return len(self.feature_names)

    def as_dict(self) -> dict[str, float]:
        """Feature → weight mapping."""
        return {
            name: float(weight)
            for name, weight in zip(self.feature_names, self.weights)
        }

    def top(self, k: int = 10, sign: str | None = None) -> list[tuple[str, float]]:
        """The *k* most important features by |weight|.

        ``sign="positive"`` / ``"negative"`` restricts to one direction —
        the paper's Example 1.2 shows top-3 positive tokens per landmark.
        """
        indexed = list(zip(self.feature_names, (float(w) for w in self.weights)))
        if sign == "positive":
            indexed = [(name, weight) for name, weight in indexed if weight > 0]
        elif sign == "negative":
            indexed = [(name, weight) for name, weight in indexed if weight < 0]
        elif sign is not None:
            raise ValueError(f"sign must be 'positive', 'negative' or None: {sign!r}")
        indexed.sort(key=lambda item: -abs(item[1]))
        return indexed[:k]

    def render(self, k: int = 10) -> str:
        """Multi-line human-readable rendering of the top-k features."""
        lines = [
            f"explanation (R²={self.score:.3f}, model p={self.model_probability:.3f}, "
            f"surrogate p={self.surrogate_probability:.3f}, n={self.n_samples})"
        ]
        for name, weight in self.top(k):
            bar = "+" if weight >= 0 else "-"
            lines.append(f"  {bar} {name:<40} {weight:+.4f}")
        return "\n".join(lines)
