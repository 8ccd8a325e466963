"""The :class:`Explanation` container returned by every explainer.

An explanation is the fitted surrogate read back as data: one weight per
interpretable feature, plus enough diagnostics (surrogate R², black-box and
surrogate probabilities at the original instance) to judge how much to
trust it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ExplanationError


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
