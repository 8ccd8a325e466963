"""Anchors over token masks — rule explanations for EM predictions.

Anchor explanations (Ribeiro et al. 2018, cited in the paper's related
work and shipped by ExplainER) answer a different question than LIME:
instead of a weight per token, they return a *rule* — a minimal set of
tokens whose presence (almost) guarantees the model's prediction,
whatever happens to the rest of the record.

This implementation is a compact beam search over token conjunctions:

1. the anchor's *precision* is estimated by sampling masks in which the
   anchor tokens are forced present and every other token survives with
   probability ½, then measuring how often the model repeats its original
   class;
2. candidates grow one token at a time, the ``beam_width`` most precise
   survive each level;
3. search stops at the first candidate whose precision reaches the
   threshold (or at ``max_anchor_size``), returning the most precise,
   smallest anchor found.

It consumes the same ``(feature_names, predict_masks)`` interface as the
LIME and Kernel SHAP explainers, so it composes with
:class:`repro.core.generation.LandmarkGenerator` and
:meth:`repro.core.engine.PredictionEngine.predict_instance` for
landmark-style per-entity anchors — see :func:`anchor_for_landmark`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.generation import GeneratedInstance
from repro.exceptions import ConfigurationError
from repro.explainers.base import PredictMasksFn, checked_names, checked_predict
from repro.matchers.base import DEFAULT_THRESHOLD, EntityMatcher


@dataclass(frozen=True)
class AnchorExplanation:
    """A rule explanation: *if these tokens are present, the model sticks
    to its prediction*."""

    feature_names: tuple[str, ...]
    anchor_indices: tuple[int, ...]
    precision: float
    coverage: float
    predicted_class: int
    n_model_calls: int

    @property
    def anchor_tokens(self) -> tuple[str, ...]:
        return tuple(self.feature_names[index] for index in self.anchor_indices)

    def render(self) -> str:
        label = "match" if self.predicted_class == 1 else "non-match"
        rule = " AND ".join(self.anchor_tokens) or "(empty anchor)"
        return (
            f"IF {rule} PRESENT THEN {label} "
            f"(precision={self.precision:.2f}, coverage={self.coverage:.2f})"
        )


class AnchorsTextExplainer:
    """Beam-search anchors with the pluggable-reconstruction interface."""

    def __init__(
        self,
        precision_threshold: float = 0.95,
        n_samples_per_candidate: int = 32,
        beam_width: int = 3,
        max_anchor_size: int = 5,
        seed: int | None = None,
    ) -> None:
        if not 0.5 < precision_threshold <= 1.0:
            raise ConfigurationError(
                f"precision_threshold must be in (0.5, 1], got {precision_threshold}"
            )
        if n_samples_per_candidate < 4:
            raise ConfigurationError("n_samples_per_candidate must be >= 4")
        if beam_width < 1:
            raise ConfigurationError("beam_width must be >= 1")
        if max_anchor_size < 1:
            raise ConfigurationError("max_anchor_size must be >= 1")
        self.precision_threshold = precision_threshold
        self.n_samples_per_candidate = n_samples_per_candidate
        self.beam_width = beam_width
        self.max_anchor_size = max_anchor_size
        self.seed = seed

    def _candidate_precision(
        self,
        anchor: tuple[int, ...],
        d: int,
        predict_masks: PredictMasksFn,
        predicted_class: int,
        threshold: float,
        rng: np.random.Generator,
    ) -> float:
        masks = (rng.random((self.n_samples_per_candidate, d)) < 0.5).astype(np.int8)
        masks[:, list(anchor)] = 1
        probabilities = checked_predict(predict_masks, masks)
        classes = (probabilities >= threshold).astype(int)
        return float(np.mean(classes == predicted_class))

    def explain(
        self,
        feature_names,
        predict_masks: PredictMasksFn,
        rng: np.random.Generator | None = None,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> AnchorExplanation:
        """Find an anchor for the model's prediction on the full instance."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        names = checked_names(feature_names)
        d = len(names)
        calls = 0

        full_mask = np.ones((1, d), dtype=np.int8)
        p_full = float(checked_predict(predict_masks, full_mask)[0])
        calls += 1
        predicted_class = int(p_full >= threshold)

        beam: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
        best: tuple[float, tuple[int, ...]] | None = None
        for _ in range(self.max_anchor_size):
            candidates: dict[tuple[int, ...], float] = {}
            for _, anchor in beam:
                for token_index in range(d):
                    if token_index in anchor:
                        continue
                    extended = tuple(sorted(anchor + (token_index,)))
                    if extended in candidates:
                        continue
                    precision = self._candidate_precision(
                        extended, d, predict_masks, predicted_class, threshold, rng
                    )
                    calls += self.n_samples_per_candidate
                    candidates[extended] = precision
            if not candidates:
                break
            ranked = sorted(
                candidates.items(), key=lambda item: (-item[1], len(item[0]))
            )
            beam = [(precision, anchor) for anchor, precision in ranked[: self.beam_width]]
            top_precision, top_anchor = beam[0]
            if best is None or top_precision > best[0]:
                best = (top_precision, top_anchor)
            if top_precision >= self.precision_threshold:
                break

        assert best is not None
        precision, anchor = best
        # Coverage: how much of the perturbation space the rule applies to.
        random_masks = (rng.random((256, d)) < 0.5).astype(np.int8)
        if anchor:
            coverage = float(np.mean(np.all(random_masks[:, list(anchor)] == 1, axis=1)))
        else:
            coverage = 1.0
        return AnchorExplanation(
            feature_names=names,
            anchor_indices=anchor,
            precision=precision,
            coverage=coverage,
            predicted_class=predicted_class,
            n_model_calls=calls,
        )


def anchor_for_landmark(
    instance: GeneratedInstance,
    matcher: EntityMatcher,
    explainer: AnchorsTextExplainer | None = None,
    rng: np.random.Generator | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> AnchorExplanation:
    """Landmark-coupled anchors: freeze one entity, anchor the other.

    The returned rule names the varying entity's tokens (and, under
    double-entity generation, the injected landmark tokens) that pin down
    the model's decision while the landmark stays fixed.  Masks are
    scored through a fresh :class:`~repro.core.engine.PredictionEngine`,
    so the beam search's repeated samples cost one matcher row each.
    """
    explainer = explainer or AnchorsTextExplainer()
    predict_masks = partial(PredictionEngine(matcher).predict_instance, instance)
    return explainer.explain(
        instance.feature_names, predict_masks, rng=rng, threshold=threshold
    )
