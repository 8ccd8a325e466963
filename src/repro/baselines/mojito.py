"""Mojito Drop (plain LIME on the pair), Attribute Drop and Copy.

The three baselines reuse the same generic perturbation explainer as
Landmark Explanation (:class:`repro.explainers.lime_text.LimeTextExplainer`)
and share one skeleton, :class:`_MojitoExplainer`: its constructor, the
per-pair RNG and the explain → :class:`PairExplanation` flow.  Each
explainer keeps only what is its own — its interpretable features, its
batch builder and how it spreads the fitted weights onto tokens:

* **Drop** perturbs every token of both entities simultaneously.  This is
  the behaviour the paper criticizes: a perturbation can remove the same
  word from both sides at once (a *null perturbation*), and on non-match
  records nearly all perturbations stay non-matching.
* **Attribute Drop** perturbs whole *(side, attribute)* cells.
* **Copy** works at attribute granularity: deactivating interpretable
  feature *j* replaces the target side's attribute *j* with the source
  side's value.  The fitted attribute weight is then distributed equally
  over the attribute's constituent tokens — exactly the atomic-attribute
  behaviour the paper contrasts with Landmark Explanation.

Each explainer turns its masks into a columnar batch
(:mod:`repro.core.columnar`) and scores it through a
:class:`~repro.core.engine.PredictionEngine` — the shared one when given,
a fresh one otherwise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.columnar import (
    ColumnarPairBatch,
    mojito_attr_drop_batch,
    mojito_copy_batch,
    mojito_drop_batch,
)
from repro.core.explanation import (
    PairTokenWeights,
    TokenEntry,
)
from repro.data.records import RecordPair
from repro.exceptions import ConfigurationError, ExplanationError
from repro.explainers.base import Explanation
from repro.core.engine import PredictionEngine
from repro.explainers.lime_text import LimeConfig, LimeTextExplainer
from repro.matchers.base import EntityMatcher
from repro.text.tokenize import Tokenizer

_SIDES = ("left", "right")

#: Per-method tags mixed into the perturbation RNG seed.  Formerly every
#: method derived its generator from ``seed * 1_000_003 + max(pair_id, 0)``,
#: which (a) collapsed all negative pair ids onto one stream and (b) gave
#: the Drop / AttrDrop / Copy explainers *the same* stream for the same
#: pair — their perturbations were correlated instead of independent.
_METHOD_TAGS = {
    "mojito_drop": 1,
    "mojito_attr_drop": 2,
    "mojito_copy": 3,
}


def _pair_rng(seed: int, method: str, pair_id: int) -> np.random.Generator:
    """An independent, reproducible perturbation stream per (seed, method,
    pair).

    ``SeedSequence`` entropy tuples hash collision-free, unlike the old
    affine formula (see :data:`_METHOD_TAGS`); masking to 32 bits matches
    the convention in :mod:`repro.core.landmark`.
    """
    sequence = np.random.SeedSequence(
        [seed & 0xFFFFFFFF, _METHOD_TAGS[method], pair_id & 0xFFFFFFFF]
    )
    return np.random.default_rng(sequence)


@dataclass(frozen=True)
class PairExplanation:
    """A baseline explanation: surrogate output + flat per-token weights."""

    pair: RecordPair
    method: str
    explanation: Explanation
    token_weights: PairTokenWeights

    def removal_pair(self, sign: str) -> RecordPair:
        """The record with every *sign*-weighted token removed."""
        return self.token_weights.removal_pair(sign)

    def render(self, k: int = 5) -> str:
        lines = [
            f"{self.method} explanation "
            f"(model p={self.explanation.model_probability:.3f}, "
            f"R²={self.explanation.score:.3f})"
        ]
        for entry in self.token_weights.top(k):
            lines.append(
                f"  {entry.weight:+.4f}  {entry.word:<20} "
                f"[{entry.side}.{entry.attribute}]"
            )
        return "\n".join(lines)


class _MojitoExplainer:
    """The skeleton every Mojito explainer shares.

    A subclass names its method and supplies three steps: its
    interpretable features (:meth:`_features`), the columnar batch a mask
    matrix rebuilds (:meth:`_batch`) and the token entries its fitted
    weights spread onto (:meth:`_entries`).
    """

    method: str

    def __init__(
        self,
        matcher: EntityMatcher,
        lime_config: LimeConfig | None = None,
        seed: int = 0,
        engine: PredictionEngine | None = None,
    ) -> None:
        self.matcher = matcher
        self.tokenizer = Tokenizer()
        self.explainer = LimeTextExplainer(lime_config)
        self.seed = seed
        self.engine = engine if engine is not None else PredictionEngine(matcher)

    def _features(self, pair: RecordPair) -> tuple[tuple[str, ...], Sequence]:
        """The interpretable feature names and what each one perturbs."""
        raise NotImplementedError

    def _batch(
        self, pair: RecordPair, features: Sequence, masks: np.ndarray
    ) -> ColumnarPairBatch:
        raise NotImplementedError

    def _entries(
        self, pair: RecordPair, features: Sequence, weights: np.ndarray
    ) -> list[TokenEntry]:
        raise NotImplementedError

    def explain(self, pair: RecordPair) -> PairExplanation:
        names, features = self._features(pair)
        if not names:
            raise ExplanationError(
                f"pair #{pair.pair_id} has nothing to perturb for {self.method}"
            )

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            batch = self._batch(pair, features, np.asarray(masks))
            return self.engine.predict_columnar(batch)

        rng = _pair_rng(self.seed, self.method, pair.pair_id)
        explanation = self.explainer.explain(names, predict_masks, rng=rng)
        entries = self._entries(pair, features, explanation.weights)
        return PairExplanation(
            pair=pair,
            method=self.method,
            explanation=explanation,
            token_weights=PairTokenWeights(pair, entries),
        )


class MojitoDropExplainer(_MojitoExplainer):
    """Plain LIME over all tokens of both entities (the paper's "LIME")."""

    method = "mojito_drop"

    def _features(self, pair):
        """All (side, token) of the record, left side first."""
        tokens = [
            (side, token)
            for side in _SIDES
            for token in self.tokenizer.tokenize_entity(pair.entity(side))
        ]
        names = tuple(f"{side}.{token.prefixed}" for side, token in tokens)
        return names, tokens

    def _batch(self, pair, tokens, masks):
        return mojito_drop_batch(pair, tokens, masks)

    def _entries(self, pair, tokens, weights):
        return [
            TokenEntry(
                side=side,
                attribute=token.attribute,
                position=token.position,
                word=token.word,
                weight=float(weight),
            )
            for (side, token), weight in zip(tokens, weights)
        ]


class MojitoAttributeDropExplainer(_MojitoExplainer):
    """Mojito's attribute-granular drop: deactivate whole attribute values.

    Mojito "exploits the subdivision of EM data into attributes": besides
    token-level drops it can perturb at attribute granularity.  An
    interpretable feature here is one *(side, attribute)* cell; turning it
    off empties that cell.  The fitted cell weight is distributed equally
    over the cell's tokens — the same atomic-attribute behaviour as Copy,
    with drop semantics instead of copy semantics.
    """

    method = "mojito_attr_drop"

    def _features(self, pair):
        """Non-empty (side, attribute) cells, left side first."""
        cells = [
            (side, attribute)
            for side in _SIDES
            for attribute in pair.schema.attributes
            if pair.entity(side)[attribute]
        ]
        return tuple(f"{side}.{attribute}" for side, attribute in cells), cells

    def _batch(self, pair, cells, masks):
        return mojito_attr_drop_batch(pair, cells, masks)

    def _entries(self, pair, cells, weights):
        entries: list[TokenEntry] = []
        for (side, attribute), weight in zip(cells, weights):
            tokens = self.tokenizer.tokenize_value(
                attribute, pair.entity(side)[attribute]
            )
            if not tokens:
                continue
            share = float(weight) / len(tokens)
            entries.extend(
                TokenEntry(
                    side=side,
                    attribute=attribute,
                    position=token.position,
                    word=token.word,
                    weight=share,
                )
                for token in tokens
            )
        return entries


class MojitoCopyExplainer(_MojitoExplainer):
    """Mojito's COPY perturbation: attribute-level substitution.

    Interpretable feature *j* = "attribute *j* of the target side keeps its
    own value".  Deactivating it copies the source side's value over.  The
    all-ones mask is the original record, so coefficients measure how much
    keeping each original attribute (versus copying) moves the match
    probability.
    """

    method = "mojito_copy"

    def __init__(
        self,
        matcher: EntityMatcher,
        lime_config: LimeConfig | None = None,
        copy_from: str = "left",
        seed: int = 0,
        engine: PredictionEngine | None = None,
    ) -> None:
        if copy_from not in _SIDES:
            raise ConfigurationError(
                f"copy_from must be 'left' or 'right', got {copy_from!r}"
            )
        super().__init__(matcher, lime_config, seed, engine)
        self.copy_from = copy_from

    @property
    def copy_to(self) -> str:
        return "right" if self.copy_from == "left" else "left"

    def _features(self, pair):
        attributes = pair.schema.attributes
        return attributes, attributes

    def _batch(self, pair, attributes, masks):
        return mojito_copy_batch(pair, self.copy_from, masks)

    def _entries(self, pair, attributes, weights):
        # Mojito "treats attributes atomically, distributing its impact
        # equally to its constituent tokens": every token of an attribute
        # carries the attribute's full weight ("the tokens of the replaced
        # attribute have the same weights" — paper Sec. 4.2.1), which is
        # what wrecks its token-removal accuracy in Table 2b.
        return [
            TokenEntry(
                side=side,
                attribute=attribute,
                position=token.position,
                word=token.word,
                weight=float(weight),
            )
            for attribute, weight in zip(attributes, weights)
            for side in _SIDES
            for token in self.tokenizer.tokenize_value(
                attribute, pair.entity(side)[attribute]
            )
        ]
