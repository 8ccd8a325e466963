"""Per-row reference recipes for turning perturbation masks into pairs.

Production code rebuilds pairs only through the columnar batch builders
(:mod:`repro.core.columnar`) and scores them through the prediction
engine.  These helpers are the plain definitions that path must
reproduce: one rebuilt :class:`~repro.data.records.RecordPair` per mask
row or key set, its kept tokens regrouped by :func:`detokenize`, scored
with the matcher's own ``predict_proba``.  They live here, not in
``src/``, because nothing in production needs a second route.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.generation import GeneratedInstance
from repro.data.records import RecordPair
from repro.text.tokenize import PrefixedToken, Tokenizer, parse_prefixed_token

_SIDES = ("left", "right")


def detokenize(tokens: Iterable[PrefixedToken]) -> dict[str, str]:
    """Reassemble tokens into an attribute → value mapping.

    Tokens are grouped by attribute and ordered by their position
    prefix, so any subset of an entity's tokens rebuilds into values
    whose words keep their original relative order.  Attributes with no
    surviving token are *absent* from the result.
    """
    grouped: dict[str, list[PrefixedToken]] = {}
    for token in tokens:
        grouped.setdefault(token.attribute, []).append(token)
    values: dict[str, str] = {}
    for attribute, attr_tokens in grouped.items():
        ordered = sorted(attr_tokens, key=lambda tok: tok.position)
        values[attribute] = " ".join(tok.word for tok in ordered)
    return values


def detokenize_strings(prefixed: Iterable[str]) -> dict[str, str]:
    """Like :func:`detokenize`, but from prefixed string form."""
    return detokenize(parse_prefixed_token(tok) for tok in prefixed)


def landmark_pair(instance: GeneratedInstance, mask) -> RecordPair:
    """Landmark mask: the varying side rebuilt from its kept tokens.

    Mask bit *i* keeps token *i* of the varying entity; the landmark
    entity is copied through unchanged.  Attributes whose tokens were all
    dropped become empty strings.
    """
    if len(mask) != len(instance.tokens):
        raise ValueError(
            f"mask length {len(mask)} != token count {len(instance.tokens)}"
        )
    kept = [token for token, bit in zip(instance.tokens, mask) if bit]
    entity = instance.pair.schema.conform(detokenize(kept))
    return instance.pair.with_side(instance.varying_side, entity)


def landmark_probabilities(
    matcher, instance: GeneratedInstance, masks: np.ndarray
) -> np.ndarray:
    """Landmark masks rebuilt row by row and scored in one matcher call."""
    return matcher.predict_proba([landmark_pair(instance, row) for row in masks])


def removal_pair(pair: RecordPair, keys) -> RecordPair:
    """*pair* with the addressed ``(side, attribute, position)`` tokens
    removed from both entities (every value rebuilt from its kept tokens)."""
    tokenizer = Tokenizer()
    to_remove = set(keys)
    result = pair
    for side in _SIDES:
        kept = [
            token
            for token in tokenizer.tokenize_entity(pair.entity(side))
            if (side, token.attribute, token.position) not in to_remove
        ]
        result = result.with_side(side, pair.schema.conform(detokenize(kept)))
    return result


def mojito_drop_pair(
    pair: RecordPair,
    tokens: list[tuple[str, PrefixedToken]],
    mask: np.ndarray,
) -> RecordPair:
    """Mojito Drop: both sides rebuilt from their kept tokens."""
    kept_by_side: dict[str, list[PrefixedToken]] = {side: [] for side in _SIDES}
    for (side, token), bit in zip(tokens, mask):
        if bit:
            kept_by_side[side].append(token)
    result = pair
    for side in _SIDES:
        entity = pair.schema.conform(detokenize(kept_by_side[side]))
        result = result.with_side(side, entity)
    return result


def mojito_attr_drop_pair(
    pair: RecordPair, cells: list[tuple[str, str]], mask: np.ndarray
) -> RecordPair:
    """Mojito attribute drop: cell *j* off empties that (side, attribute)."""
    entities = {side: dict(pair.entity(side)) for side in _SIDES}
    for (side, attribute), bit in zip(cells, mask):
        if not bit:
            entities[side][attribute] = ""
    return pair.with_left(entities["left"]).with_right(entities["right"])


def mojito_copy_pair(
    pair: RecordPair, copy_from: str, mask: np.ndarray
) -> RecordPair:
    """Mojito Copy: feature *j* off copies the source side's attribute *j*."""
    copy_to = "right" if copy_from == "left" else "left"
    target = dict(pair.entity(copy_to))
    source = pair.entity(copy_from)
    for attribute, bit in zip(pair.schema.attributes, mask):
        if not bit:
            target[attribute] = source[attribute]
    return pair.with_side(copy_to, target)


def pair_content(pair: RecordPair) -> tuple:
    """Everything a matcher or the engine's fingerprint can see of *pair*."""
    return (
        pair.schema.attributes,
        tuple(pair.left.items()),
        tuple(pair.right.items()),
        pair.label,
        pair.pair_id,
    )


class TransparentEngine:
    """Stands in for a :class:`~repro.core.engine.PredictionEngine` with
    nothing between the explainers and the matcher.

    Every requested row reaches the matcher: nothing is deduplicated,
    cached or chunked.  Landmark masks are rebuilt per row by
    :func:`landmark_pair`; Mojito batches are materialized row by row.
    Explanations computed through it are the reference an engine must
    reproduce bit for bit, and a counting matcher behind it counts every
    row an engine is asked for.
    """

    def __init__(self, matcher) -> None:
        self.matcher = matcher

    def predict_pairs(self, pairs) -> np.ndarray:
        return np.asarray(self.matcher.predict_proba(list(pairs)), np.float64)

    def predict_one(self, pair: RecordPair) -> float:
        return float(self.predict_pairs([pair])[0])

    def predict_instance(self, instance, masks) -> np.ndarray:
        return landmark_probabilities(self.matcher, instance, np.asarray(masks))

    def predict_columnar(self, batch) -> np.ndarray:
        return self.predict_pairs(batch.pairs())

    def as_matcher(self):
        return self.matcher
