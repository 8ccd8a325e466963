"""Per-row reference recipes for turning perturbation masks into pairs.

Production code applies a whole mask matrix at once as a columnar batch
(:mod:`repro.core.columnar`) and scores it through the prediction engine.
These helpers are the plain definitions that path must reproduce: one
rebuilt :class:`~repro.data.records.RecordPair` per mask row, scored with
the matcher's own ``predict_proba``.  They live here, not in ``src/``,
because nothing in production needs a second route.
"""

from __future__ import annotations

import numpy as np

from repro.core.generation import GeneratedInstance
from repro.core.reconstruction import PairReconstructor
from repro.data.records import RecordPair
from repro.text.tokenize import PrefixedToken, Tokenizer

_SIDES = ("left", "right")


def landmark_probabilities(
    matcher, instance: GeneratedInstance, masks: np.ndarray
) -> np.ndarray:
    """Landmark masks rebuilt row by row and scored in one matcher call."""
    reconstructor = PairReconstructor()
    return matcher.predict_proba(
        [reconstructor.rebuild(instance, row) for row in masks]
    )


def mojito_drop_pair(
    pair: RecordPair,
    tokens: list[tuple[str, PrefixedToken]],
    mask: np.ndarray,
) -> RecordPair:
    """Mojito Drop: both sides rebuilt from their kept tokens."""
    tokenizer = Tokenizer()
    kept_by_side: dict[str, list[PrefixedToken]] = {side: [] for side in _SIDES}
    for (side, token), bit in zip(tokens, mask):
        if bit:
            kept_by_side[side].append(token)
    result = pair
    for side in _SIDES:
        entity = pair.schema.conform(tokenizer.detokenize(kept_by_side[side]))
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
