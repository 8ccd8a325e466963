"""The public entry point: :class:`LandmarkExplainer`.

Wraps a black-box matcher and a generic perturbation explainer into the
paper's pipeline.  One call to :meth:`LandmarkExplainer.explain` produces a
:class:`~repro.core.explanation.DualExplanation` — the record explained
twice, once per landmark side.

Generation-mode policy
----------------------
``generation="auto"`` follows the paper's lessons learned: single-entity
generation when the model predicts *match*, double-entity generation
(landmark-token injection) when it predicts *non-match*.  ``"single"`` and
``"double"`` force a mode, which is what the evaluation harness does to
fill the Single / Double columns of Tables 2-4.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.explanation import DualExplanation, LandmarkExplanation
from repro.core.generation import (
    GENERATION_DOUBLE,
    GENERATION_SINGLE,
    LandmarkGenerator,
)
from repro.data.records import RecordPair
from repro.exceptions import ConfigurationError, ExplanationError
from repro.explainers.lime_text import LimeConfig, LimeTextExplainer
from repro.matchers.base import DEFAULT_THRESHOLD, EntityMatcher
from repro.obs.tracing import trace

GENERATION_AUTO = "auto"


class LandmarkExplainer:
    """Explains EM model predictions with per-landmark perturbations."""

    def __init__(
        self,
        matcher: EntityMatcher,
        lime_config: LimeConfig | None = None,
        injection_fraction: float = 1.0,
        threshold: float = DEFAULT_THRESHOLD,
        seed: int = 0,
        explainer: object | None = None,
        engine: PredictionEngine | None = None,
    ) -> None:
        """Wrap *matcher* with the landmark pipeline.

        *explainer* is any object with the generic
        ``explain(feature_names, predict_masks, rng) -> Explanation``
        interface (e.g. :class:`repro.explainers.KernelShapExplainer`);
        when omitted, a LIME explainer configured by *lime_config* is used
        — the paper's coupling.

        *engine* is the batched prediction engine every model call goes
        through: its :meth:`~repro.core.engine.PredictionEngine.
        predict_instance` is the surrogate's mask-predict function (the
        paper's *dataset reconstruction*).  Mask matrices are applied as
        columnar batches, deduplicated, answered from the LRU cache where
        possible and scored by the engine's one chunked, guarded
        executor.  When omitted a default engine is created; pass an
        explicit :class:`~repro.core.engine.PredictionEngine` to share one
        cache across explainers.  Engine settings never change the
        produced weights.
        """
        if not 0.0 < threshold < 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1), got {threshold}")
        if explainer is not None and lime_config is not None:
            raise ConfigurationError(
                "pass either lime_config (for the default LIME explainer) "
                "or an explicit explainer, not both"
            )
        self.matcher = matcher
        self.generator = LandmarkGenerator(injection_fraction=injection_fraction)
        self.engine = engine if engine is not None else PredictionEngine(matcher)
        self.explainer = explainer if explainer is not None else LimeTextExplainer(
            lime_config
        )
        self.threshold = threshold
        self.seed = seed

    # ------------------------------------------------------------------

    def resolve_generation(self, pair: RecordPair, generation: str) -> str:
        """Map ``"auto"`` to single/double from the model's own prediction."""
        if generation in (GENERATION_SINGLE, GENERATION_DOUBLE):
            return generation
        if generation != GENERATION_AUTO:
            raise ConfigurationError(
                "generation must be 'single', 'double' or 'auto', got "
                f"{generation!r}"
            )
        probability = self.engine.predict_one(pair)
        if probability >= self.threshold:
            return GENERATION_SINGLE
        return GENERATION_DOUBLE

    def _rng_for(self, pair: RecordPair, landmark_side: str) -> np.random.Generator:
        """A deterministic per-(pair, side) random stream.

        The per-pair root sequence is *spawned* into two independent child
        streams, one per landmark side.  Spawning (rather than offsetting a
        shared integer seed) guarantees the left and right perturbation
        draws are statistically uncorrelated while staying reproducible for
        a fixed ``seed`` — reusing one stream for both sides would couple
        the two halves of a :class:`DualExplanation`.
        """
        root = np.random.SeedSequence(
            [self.seed & 0xFFFFFFFF, pair.pair_id & 0xFFFFFFFF]
        )
        left_sequence, right_sequence = root.spawn(2)
        chosen = left_sequence if landmark_side == "left" else right_sequence
        return np.random.default_rng(chosen)

    # ------------------------------------------------------------------

    def explain_landmark(
        self,
        pair: RecordPair,
        landmark_side: str,
        generation: str = GENERATION_AUTO,
    ) -> LandmarkExplanation:
        """Explain *pair* from the perspective of one landmark side."""
        resolved = self.resolve_generation(pair, generation)
        try:
            with trace.span(
                "landmark", side=landmark_side, pair_id=pair.pair_id,
                generation=resolved,
            ):
                with trace.span("generation", side=landmark_side):
                    instance = self.generator.generate(
                        pair, landmark_side, resolved
                    )
                if not instance.tokens:
                    raise ExplanationError(
                        f"the {instance.varying_side} entity of pair "
                        f"#{pair.pair_id} has no tokens to perturb"
                    )
                explanation = self.explainer.explain(
                    instance.feature_names,
                    partial(self.engine.predict_instance, instance),
                    rng=self._rng_for(pair, landmark_side),
                )
        except Exception as error:
            # Tag the failure with the landmark side for the failure
            # ledger; the exception itself propagates unchanged.
            try:
                if not hasattr(error, "landmark_side"):
                    error.landmark_side = landmark_side
            except AttributeError:  # pragma: no cover - exotic __slots__
                pass
            raise
        return LandmarkExplanation(instance=instance, explanation=explanation)

    def explain(
        self,
        pair: RecordPair,
        generation: str = GENERATION_AUTO,
    ) -> DualExplanation:
        """The paper's dual explanation: both landmark sides."""
        resolved = self.resolve_generation(pair, generation)
        with trace.span("explain", pair_id=pair.pair_id, generation=resolved):
            return DualExplanation(
                pair=pair,
                left_landmark=self.explain_landmark(pair, "left", resolved),
                right_landmark=self.explain_landmark(pair, "right", resolved),
            )
