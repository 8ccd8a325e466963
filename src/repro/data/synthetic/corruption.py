"""Corruption operators: turning one world entity into two noisy views.

A matching record pair is ``(view_a, view_b)`` where both views come from
the same world entity but were independently corrupted.  The operators here
model the kinds of noise the Magellan datasets actually contain:

* **token drop** — one source lists fewer descriptive words;
* **typo** — a character swapped, dropped or duplicated inside a word;
* **abbreviation** — a word truncated ("corporation" → "corp");
* **token swap** — two adjacent words transposed;
* **numeric drift** — prices/ABVs that differ by a small relative amount
  between catalogues.

All operators work on normalized attribute values (strings of
space-separated words) and are driven by a seeded generator for
determinism: a :class:`numpy.random.Generator` or the corpus's
:class:`~repro.data.synthetic.stream.RandomStream`, which draws the same
values.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

Entity = dict[str, str]


@dataclass(frozen=True)
class CorruptionConfig:
    """Per-operator probabilities used when corrupting one attribute value.

    The defaults produce pairs where matches keep a clearly dominant token
    overlap but are rarely literally identical — the regime in which the
    similarity features of the EM model are informative without being
    trivial.
    """

    token_drop: float = 0.20
    typo: float = 0.10
    abbreviation: float = 0.10
    token_swap: float = 0.08
    numeric_drift: float = 0.30
    numeric_relative_sigma: float = 0.02
    #: Attributes that should be treated as numeric for drift purposes.
    numeric_attributes: frozenset[str] = field(
        default_factory=lambda: frozenset({"price", "abv", "class", "year"})
    )


def _typo(word: str, rng: np.random.Generator) -> str:
    """Apply one random character-level edit to *word*."""
    if len(word) < 3:
        return word
    kind = int(rng.integers(3))
    position = int(rng.integers(1, len(word) - 1))
    if kind == 0:  # swap adjacent characters
        chars = list(word)
        chars[position], chars[position + 1] = chars[position + 1], chars[position]
        return "".join(chars)
    if kind == 1:  # drop a character
        return word[:position] + word[position + 1:]
    return word[:position] + word[position] + word[position:]  # duplicate


def _abbreviate(word: str, rng: np.random.Generator) -> str:
    """Truncate *word* to a 3-5 character prefix, when long enough."""
    if len(word) <= 4:
        return word
    keep = int(rng.integers(3, min(6, len(word))))
    return word[:keep]


def corrupt_value(
    attribute: str,
    value: str,
    rng: np.random.Generator,
    config: CorruptionConfig,
) -> str:
    """Return a corrupted copy of one attribute value."""
    if not value:
        return value
    if attribute in config.numeric_attributes:
        if rng.random() < config.numeric_drift:
            try:
                number = float(value)
            except ValueError:
                return value
            drifted = number * (1.0 + rng.normal(0.0, config.numeric_relative_sigma))
            if "." in value:
                decimals = len(value.split(".", 1)[1])
                return f"{drifted:.{decimals}f}"
            return str(int(round(drifted)))
        return value

    random = rng.random
    typo, abbreviation = config.typo, config.abbreviation
    if " " not in value:
        # One word: never dropped, never swapped.
        if random() < typo:
            return _typo(value, rng)
        if random() < abbreviation:
            return _abbreviate(value, rng)
        return value
    words = value.split(" ")
    last = words.pop()
    token_drop = config.token_drop
    survivors: list[str] = []
    keep = survivors.append
    for word in words:
        if random() < token_drop:
            continue
        if random() < typo:
            word = _typo(word, rng)
        elif random() < abbreviation:
            word = _abbreviate(word, rng)
        keep(word)
    # Never drop below one word: an empty view of a populated attribute
    # would look like dirty data rather than noise.  The last word may be
    # dropped only if an earlier one survived.
    if not (survivors and random() < token_drop):
        if random() < typo:
            last = _typo(last, rng)
        elif random() < abbreviation:
            last = _abbreviate(last, rng)
        keep(last)
    if len(survivors) >= 2 and random() < config.token_swap:
        position = rng.integers(len(survivors) - 1)
        survivors[position], survivors[position + 1] = (
            survivors[position + 1],
            survivors[position],
        )
    return " ".join(survivors)


def corrupt_entity(
    entity: Mapping[str, str],
    rng: np.random.Generator,
    config: CorruptionConfig | None = None,
) -> Entity:
    """Return an independently corrupted view of *entity*."""
    config = config or CorruptionConfig()
    return {
        attribute: corrupt_value(attribute, value, rng, config)
        for attribute, value in entity.items()
    }
