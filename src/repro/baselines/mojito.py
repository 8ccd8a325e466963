"""Mojito Drop (plain LIME on the pair) and Mojito Copy.

Both baselines reuse the same generic perturbation explainer as Landmark
Explanation (:class:`repro.explainers.lime_text.LimeTextExplainer`) — only
their interpretable features and reconstruction differ:

* **Drop** perturbs every token of both entities simultaneously.  This is
  the behaviour the paper criticizes: a perturbation can remove the same
  word from both sides at once (a *null perturbation*), and on non-match
  records nearly all perturbations stay non-matching.
* **Copy** works at attribute granularity: deactivating interpretable
  feature *j* replaces the target side's attribute *j* with the source
  side's value.  The fitted attribute weight is then distributed equally
  over the attribute's constituent tokens — exactly the atomic-attribute
  behaviour the paper contrasts with Landmark Explanation.

Each explainer turns its masks into a columnar batch
(:mod:`repro.core.columnar`) and scores it through a
:class:`~repro.core.engine.PredictionEngine` — the shared one when given,
a transparent :data:`~repro.core.engine.ENGINE_OFF` engine otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.columnar import (
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
from repro.core.engine import ENGINE_OFF, PredictionEngine
from repro.explainers.lime_text import LimeConfig, LimeTextExplainer
from repro.matchers.base import EntityMatcher
from repro.text.tokenize import PrefixedToken, Tokenizer

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

    def removal_pair(self, sign: str, tokenizer: Tokenizer | None = None) -> RecordPair:
        """The record with every *sign*-weighted token removed."""
        return self.token_weights.removal_pair(sign, tokenizer)

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


class MojitoDropExplainer:
    """Plain LIME over all tokens of both entities (the paper's "LIME")."""

    method = "mojito_drop"

    def __init__(
        self,
        matcher: EntityMatcher,
        lime_config: LimeConfig | None = None,
        tokenizer: Tokenizer | None = None,
        seed: int = 0,
        engine: PredictionEngine | None = None,
    ) -> None:
        self.matcher = matcher
        self.tokenizer = tokenizer or Tokenizer()
        self.explainer = LimeTextExplainer(lime_config)
        self.seed = seed
        self.engine = (
            engine if engine is not None else PredictionEngine(matcher, ENGINE_OFF)
        )

    def _pair_tokens(self, pair: RecordPair) -> list[tuple[str, PrefixedToken]]:
        """All (side, token) of the record, left side first."""
        tokens: list[tuple[str, PrefixedToken]] = []
        for side in _SIDES:
            for token in self.tokenizer.tokenize_entity(pair.entity(side)):
                tokens.append((side, token))
        return tokens

    def explain(self, pair: RecordPair) -> PairExplanation:
        tokens = self._pair_tokens(pair)
        if not tokens:
            raise ExplanationError(f"pair #{pair.pair_id} has no tokens")
        feature_names = tuple(
            f"{side}.{token.prefixed}" for side, token in tokens
        )

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            batch = mojito_drop_batch(pair, tokens, np.asarray(masks))
            return self.engine.predict_columnar(batch)

        rng = _pair_rng(self.seed, self.method, pair.pair_id)
        explanation = self.explainer.explain(feature_names, predict_masks, rng=rng)
        entries = [
            TokenEntry(
                side=side,
                attribute=token.attribute,
                position=token.position,
                word=token.word,
                weight=float(weight),
            )
            for (side, token), weight in zip(tokens, explanation.weights)
        ]
        return PairExplanation(
            pair=pair,
            method=self.method,
            explanation=explanation,
            token_weights=PairTokenWeights(pair, entries),
        )


class MojitoAttributeDropExplainer:
    """Mojito's attribute-granular drop: deactivate whole attribute values.

    Mojito "exploits the subdivision of EM data into attributes": besides
    token-level drops it can perturb at attribute granularity.  An
    interpretable feature here is one *(side, attribute)* cell; turning it
    off empties that cell.  The fitted cell weight is distributed equally
    over the cell's tokens — the same atomic-attribute behaviour as Copy,
    with drop semantics instead of copy semantics.
    """

    method = "mojito_attr_drop"

    def __init__(
        self,
        matcher: EntityMatcher,
        lime_config: LimeConfig | None = None,
        tokenizer: Tokenizer | None = None,
        seed: int = 0,
        engine: PredictionEngine | None = None,
    ) -> None:
        self.matcher = matcher
        self.tokenizer = tokenizer or Tokenizer()
        self.explainer = LimeTextExplainer(lime_config)
        self.seed = seed
        self.engine = (
            engine if engine is not None else PredictionEngine(matcher, ENGINE_OFF)
        )

    def _cells(self, pair: RecordPair) -> list[tuple[str, str]]:
        """Non-empty (side, attribute) cells, left side first."""
        cells = []
        for side in _SIDES:
            for attribute in pair.schema.attributes:
                if pair.entity(side)[attribute]:
                    cells.append((side, attribute))
        return cells

    def explain(self, pair: RecordPair) -> PairExplanation:
        cells = self._cells(pair)
        if not cells:
            raise ExplanationError(f"pair #{pair.pair_id} has no attribute values")
        feature_names = tuple(f"{side}.{attribute}" for side, attribute in cells)

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            batch = mojito_attr_drop_batch(pair, cells, np.asarray(masks))
            return self.engine.predict_columnar(batch)

        rng = _pair_rng(self.seed, self.method, pair.pair_id)
        explanation = self.explainer.explain(feature_names, predict_masks, rng=rng)

        entries: list[TokenEntry] = []
        for (side, attribute), weight in zip(cells, explanation.weights):
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
        return PairExplanation(
            pair=pair,
            method=self.method,
            explanation=explanation,
            token_weights=PairTokenWeights(pair, entries),
        )


class MojitoCopyExplainer:
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
        tokenizer: Tokenizer | None = None,
        copy_from: str = "left",
        seed: int = 0,
        engine: PredictionEngine | None = None,
    ) -> None:
        if copy_from not in _SIDES:
            raise ConfigurationError(
                f"copy_from must be 'left' or 'right', got {copy_from!r}"
            )
        self.matcher = matcher
        self.tokenizer = tokenizer or Tokenizer()
        self.explainer = LimeTextExplainer(lime_config)
        self.copy_from = copy_from
        self.seed = seed
        self.engine = (
            engine if engine is not None else PredictionEngine(matcher, ENGINE_OFF)
        )

    @property
    def copy_to(self) -> str:
        return "right" if self.copy_from == "left" else "left"

    def explain(self, pair: RecordPair) -> PairExplanation:
        attributes = pair.schema.attributes

        def predict_masks(masks: np.ndarray) -> np.ndarray:
            batch = mojito_copy_batch(pair, self.copy_from, np.asarray(masks))
            return self.engine.predict_columnar(batch)

        rng = _pair_rng(self.seed, self.method, pair.pair_id)
        explanation = self.explainer.explain(attributes, predict_masks, rng=rng)

        # Mojito "treats attributes atomically, distributing its impact
        # equally to its constituent tokens": every token of an attribute
        # carries the attribute's full weight ("the tokens of the replaced
        # attribute have the same weights" — paper Sec. 4.2.1), which is
        # what wrecks its token-removal accuracy in Table 2b.
        entries: list[TokenEntry] = []
        weight_of_attribute = dict(zip(attributes, explanation.weights))
        for attribute in attributes:
            attribute_weight = float(weight_of_attribute[attribute])
            for side in _SIDES:
                for token in self.tokenizer.tokenize_value(
                    attribute, pair.entity(side)[attribute]
                ):
                    entries.append(
                        TokenEntry(
                            side=side,
                            attribute=attribute,
                            position=token.position,
                            word=token.word,
                            weight=attribute_weight,
                        )
                    )
        return PairExplanation(
            pair=pair,
            method=self.method,
            explanation=explanation,
            token_weights=PairTokenWeights(pair, entries),
        )
