"""Explanation views: per-landmark, dual, and flat per-token weight maps.

Three layers, from closest-to-the-surrogate to closest-to-the-evaluation:

* :class:`LandmarkExplanation` — the surrogate coefficients for one
  (record, landmark side, generation mode) choice, with token provenance
  (attribute, position, injected-or-not).
* :class:`DualExplanation` — the paper's output: one explanation per
  landmark side.  Its :meth:`~DualExplanation.combined` view assigns every
  *original* token of the record the weight it received in the explanation
  where its own entity was the varying one.
* :class:`PairTokenWeights` — a flat ``(side, attribute, position) → weight``
  map over the record's tokens; the evaluation harness consumes this shape
  for Landmark and baseline explainers alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.columnar import landmark_batch, removal_batch
from repro.core.generation import GENERATION_DOUBLE, GeneratedInstance
from repro.data.records import RecordPair
from repro.exceptions import ExplanationError
from repro.explainers.base import Explanation

#: Address of one token inside a record pair.
TokenKey = tuple[str, str, int]  # (side, attribute, position)


@dataclass(frozen=True)
class TokenEntry:
    """One record token with its explanation weight."""

    side: str
    attribute: str
    position: int
    word: str
    weight: float

    @property
    def key(self) -> TokenKey:
        return (self.side, self.attribute, self.position)


class PairTokenWeights:
    """Flat per-token weight map over a record pair's original tokens."""

    def __init__(self, pair: RecordPair, entries: Sequence[TokenEntry]) -> None:
        self.pair = pair
        self.entries: tuple[TokenEntry, ...] = tuple(entries)
        self._index: dict[TokenKey, TokenEntry] = {}
        for entry in self.entries:
            if entry.key in self._index:
                raise ExplanationError(f"duplicate token key {entry.key}")
            self._index[entry.key] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: TokenKey) -> bool:
        return key in self._index

    def weight(self, side: str, attribute: str, position: int) -> float:
        """Weight of one addressed token; raises on unknown addresses."""
        entry = self._index.get((side, attribute, position))
        if entry is None:
            raise ExplanationError(
                f"no weight for token ({side}, {attribute}, {position})"
            )
        return entry.weight

    def entries_by_sign(self, sign: str) -> list[TokenEntry]:
        """Entries with strictly positive / strictly negative weight."""
        if sign == "positive":
            return [entry for entry in self.entries if entry.weight > 0]
        if sign == "negative":
            return [entry for entry in self.entries if entry.weight < 0]
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")

    def attribute_importance(self) -> dict[str, float]:
        """Σ|weight| of each attribute's tokens, both sides pooled."""
        importance = {attribute: 0.0 for attribute in self.pair.schema.attributes}
        for entry in self.entries:
            importance[entry.attribute] += abs(entry.weight)
        return importance

    def removal_pair(self, sign: str) -> RecordPair:
        """The record with every *sign*-weighted token removed."""
        keys = [entry.key for entry in self.entries_by_sign(sign)]
        return removal_batch(self.pair, [keys]).pairs()[0]

    def top(self, k: int = 10) -> list[TokenEntry]:
        """The *k* entries with the largest |weight|."""
        ordered = sorted(self.entries, key=lambda entry: -abs(entry.weight))
        return ordered[:k]


@dataclass(frozen=True)
class LandmarkExplanation:
    """Surrogate coefficients for one landmark choice, with provenance."""

    instance: GeneratedInstance
    explanation: Explanation

    def __post_init__(self) -> None:
        if self.explanation.feature_names != self.instance.feature_names:
            raise ExplanationError(
                "explanation features do not match the generated instance"
            )

    @property
    def pair(self) -> RecordPair:
        return self.instance.pair

    @property
    def landmark_side(self) -> str:
        return self.instance.landmark_side

    @property
    def varying_side(self) -> str:
        return self.instance.varying_side

    @property
    def generation(self) -> str:
        return self.instance.generation

    def token_weights(self) -> list[tuple[str, str, int, bool, float]]:
        """(attribute, word, position, injected, weight) per perturbable token."""
        rows = []
        for token, injected, weight in zip(
            self.instance.tokens, self.instance.injected, self.explanation.weights
        ):
            rows.append(
                (token.attribute, token.word, token.position, injected, float(weight))
            )
        return rows

    def original_entries(self) -> list[TokenEntry]:
        """Weights of the varying entity's *own* (non-injected) tokens."""
        entries = []
        for token, injected, weight in zip(
            self.instance.tokens, self.instance.injected, self.explanation.weights
        ):
            if injected:
                continue
            entries.append(
                TokenEntry(
                    side=self.varying_side,
                    attribute=token.attribute,
                    position=token.position,
                    word=token.word,
                    weight=float(weight),
                )
            )
        return entries

    def top_tokens(
        self,
        k: int = 3,
        sign: str | None = None,
        include_injected: bool = True,
    ) -> list[tuple[str, str, float, bool]]:
        """Top-k (word, attribute, weight, injected) rows by |weight|."""
        rows = []
        for token, injected, weight in zip(
            self.instance.tokens, self.instance.injected, self.explanation.weights
        ):
            weight = float(weight)
            if not include_injected and injected:
                continue
            if sign == "positive" and weight <= 0:
                continue
            if sign == "negative" and weight >= 0:
                continue
            rows.append((token.word, token.attribute, weight, injected))
        rows.sort(key=lambda row: -abs(row[2]))
        return rows[:k]

    def attribute_importance(self, include_injected: bool = True) -> dict[str, float]:
        """Σ|weight| per attribute over this explanation's tokens."""
        importance = {attribute: 0.0 for attribute in self.pair.schema.attributes}
        for token, injected, weight in zip(
            self.instance.tokens, self.instance.injected, self.explanation.weights
        ):
            if injected and not include_injected:
                continue
            importance[token.attribute] += abs(float(weight))
        return importance

    def apply_removal(self, sign: str) -> RecordPair:
        """The pair rebuilt from this explanation's working representation
        with every *sign*-weighted token removed.

        Under double-entity generation the working representation *includes
        the injected landmark tokens*: removing the negative ones keeps the
        match-inducing injected tokens in place — the mechanism behind the
        paper's "interest" result for non-match records.
        """
        if sign not in ("positive", "negative"):
            raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")
        if sign == "positive":
            mask = [0 if weight > 0 else 1 for weight in self.explanation.weights]
        else:
            mask = [0 if weight < 0 else 1 for weight in self.explanation.weights]
        return landmark_batch(self.instance, [mask]).pairs()[0]

    def render(self, k: int = 5) -> str:
        """Readable per-landmark summary."""
        lines = [
            f"landmark={self.landmark_side} varying={self.varying_side} "
            f"generation={self.generation} "
            f"(model p={self.explanation.model_probability:.3f}, "
            f"R²={self.explanation.score:.3f})"
        ]
        for word, attribute, weight, injected in self.top_tokens(k):
            marker = "injected" if injected else "own"
            lines.append(f"  {weight:+.4f}  {word:<20} [{attribute}, {marker}]")
        return "\n".join(lines)


@dataclass(frozen=True)
class DualExplanation:
    """The paper's output: one explanation per landmark side."""

    pair: RecordPair
    left_landmark: LandmarkExplanation
    right_landmark: LandmarkExplanation

    def __post_init__(self) -> None:
        if self.left_landmark.landmark_side != "left":
            raise ExplanationError("left_landmark must have landmark_side='left'")
        if self.right_landmark.landmark_side != "right":
            raise ExplanationError("right_landmark must have landmark_side='right'")

    @property
    def generation(self) -> str:
        return self.left_landmark.generation

    def for_landmark(self, side: str) -> LandmarkExplanation:
        if side == "left":
            return self.left_landmark
        if side == "right":
            return self.right_landmark
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def sides(self) -> tuple[LandmarkExplanation, LandmarkExplanation]:
        return (self.left_landmark, self.right_landmark)

    def combined(self) -> PairTokenWeights:
        """Every original token weighted by the explanation that varied it.

        Right-side tokens take their weight from the left-landmark
        explanation (where the right entity was perturbed) and vice versa,
        so the two explanations jointly cover the whole record exactly once.
        """
        entries = (
            self.left_landmark.original_entries()
            + self.right_landmark.original_entries()
        )
        return PairTokenWeights(self.pair, entries)

    def attribute_importance(self, include_injected: bool = True) -> dict[str, float]:
        """Σ|weight| per attribute pooled over both landmark explanations."""
        importance = {attribute: 0.0 for attribute in self.pair.schema.attributes}
        for side in self.sides():
            for attribute, value in side.attribute_importance(include_injected).items():
                importance[attribute] += value
        return importance

    def digest(self) -> str:
        """Stable content hash of this explanation (see
        :func:`repro.core.serialize.dual_digest`).

        Equal digests mean bit-identical serialized explanations — the
        equality the serving layer's store and the reproduction tests use.
        """
        from repro.core.serialize import dual_digest

        return dual_digest(self)

    def render(self, k: int = 5) -> str:
        """Readable dual summary (Example 1.2 style)."""
        header = (
            f"dual explanation [{self.generation}] "
            f"{'injected tokens present' if self.generation == GENERATION_DOUBLE else ''}"
        ).rstrip()
        return "\n".join(
            (header, self.left_landmark.render(k), self.right_landmark.render(k))
        )
