"""Pair reconstruction and dataset reconstruction.

*Pair reconstruction* turns a perturbation mask back into a well-formed
record pair: the surviving tokens of the varying entity are regrouped into
attribute values (the tokenizer's prefixes say where every token belongs)
and re-joined with the untouched landmark entity.

*Dataset reconstruction* labels every rebuilt pair with the black-box EM
model, producing the (mask, probability) training set of the surrogate.
It always runs through the prediction engine, whose columnar path
(:func:`~repro.core.columnar.landmark_batch`) applies a whole mask matrix
at once; :meth:`PairReconstructor.rebuild` is the per-mask definition
that path reproduces.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.engine import ENGINE_OFF, PredictionEngine
from repro.core.generation import GeneratedInstance
from repro.data.records import RecordPair
from repro.matchers.base import EntityMatcher
from repro.text.tokenize import Tokenizer


class PairReconstructor:
    """Rebuilds record pairs from perturbation masks."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer or Tokenizer()

    def rebuild(
        self, instance: GeneratedInstance, mask: Sequence[int] | np.ndarray
    ) -> RecordPair:
        """The record pair corresponding to one perturbation mask.

        Mask bit *i* keeps token *i* of the varying entity; the landmark
        entity is copied through unchanged.  Attributes whose tokens were
        all dropped become empty strings (the schema is always complete).
        """
        if len(mask) != len(instance.tokens):
            raise ValueError(
                f"mask length {len(mask)} != token count {len(instance.tokens)}"
            )
        kept = [token for token, bit in zip(instance.tokens, mask) if bit]
        entity = instance.pair.schema.conform(self.tokenizer.detokenize(kept))
        return instance.pair.with_side(instance.varying_side, entity)


class DatasetReconstructor:
    """Adapts a matcher into the explainer's mask-predict fn.

    Mask batches always route through a
    :class:`~repro.core.engine.PredictionEngine` — its dedup + cache +
    batching layer when one is given, a transparent
    :data:`~repro.core.engine.ENGINE_OFF` engine (every mask row sent to
    the matcher, nothing cached) otherwise.  Engine settings never change the
    returned probabilities.
    """

    def __init__(
        self,
        matcher: EntityMatcher,
        engine: PredictionEngine | None = None,
    ) -> None:
        self.matcher = matcher
        self.engine = (
            engine if engine is not None else PredictionEngine(matcher, ENGINE_OFF)
        )

    @property
    def stats(self):
        """Counters of the engine the masks are predicted through."""
        return self.engine.stats

    def predict_masks_fn(self, instance: GeneratedInstance):
        """A ``masks → probabilities`` closure for one generated instance."""
        engine = self.engine

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            return engine.predict_instance(instance, masks)

        return predict_masks
