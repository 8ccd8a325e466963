"""Attribute-value normalization.

Entity matching pipelines are extremely sensitive to superficial formatting
noise (case, punctuation, duplicated whitespace).  Every attribute value that
enters the tokenizer or the feature extractor first goes through
:func:`normalize_value` so that the rest of the system can assume a single
canonical representation.
"""

from __future__ import annotations

import unicodedata

# Punctuation that is replaced by a space.  Hyphens, slashes and ampersands
# frequently glue together tokens that should be compared independently
# ("dslr-a200w", "black/white"); the remaining marks are mostly list
# separators and quoting characters.
_PUNCT_TO_SPACE = ",;:!?\"'()[]{}<>|/\\&*+=~`^-"

# Characters dropped entirely (they never separate tokens).
_PUNCT_TO_DROP = "#%@"

# One ``str.translate`` pass for both classes.  A list indexed by code point
# is cheaper than a ``str.maketrans`` dict; code points past its end raise
# IndexError, which ``translate`` reads as "unchanged".
_PUNCT_TABLE = [
    " " if char in _PUNCT_TO_SPACE else None if char in _PUNCT_TO_DROP else char
    for char in map(chr, range(128))
]

#: Lower-cased raw values that mean "missing".
_NULLS = frozenset({"nan", "none", "null"})

#: Separates the values of a batch in :func:`normalize_values`.  NUL is not
#: whitespace, punctuation, cased or case-ignorable, and it is an NFKD
#: starter that decomposes to itself, so no step of the recipe moves,
#: merges or drops it, nor reads across it.
_WALL = "\x00"


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends.

    ``str.split()`` splits on exactly the characters ``re``'s Unicode
    ``\\s`` matches (``str.isspace``), so this is the regex recipe
    ``sub(r"\\s+", " ", text).strip()`` in one pass.
    """
    return " ".join(text.split())


def strip_accents(text: str) -> str:
    """Return *text* with combining diacritical marks removed.

    ``"café"`` becomes ``"cafe"``.  Implemented via NFKD decomposition so it
    works for any script that decomposes into base character + combining
    mark.
    """
    if text.isascii():
        # ASCII is closed under NFKD and contains no combining marks, so
        # the decomposition pass is the identity — skip it.  The vast
        # majority of attribute values take this path.
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _canonical(text: str) -> str:
    """*text* accent-stripped, lower-cased and de-punctuated.

    Accent stripping comes first: NFKD can surface new uppercase base
    characters (e.g. the math-bold '𝑨' decomposes to 'A'), so lower-casing
    must follow.  Whitespace is left for the caller to collapse.
    """
    return strip_accents(text).lower().translate(_PUNCT_TABLE)


def normalize_value(value: object) -> str:
    """Return the canonical string form of an attribute value.

    ``None`` and ``NaN``-like values become the empty string; everything else
    is stringified, lower-cased, accent-stripped, and lightly
    de-punctuated.  Trailing ``.0`` on floats that are whole numbers is
    removed so that ``849.99`` stays ``"849.99"`` but ``2021.0`` becomes
    ``"2021"`` — numeric attributes round-trip cleanly through CSV.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN: the only float not equal to itself
            return ""
        if value == int(value) and abs(value) < 1e15:
            value = int(value)
    text = str(value)
    if not text or text.lower() in _NULLS:
        return ""
    return normalize_whitespace(_canonical(text))


def normalize_values(values: list[str]) -> list[str]:
    """:func:`normalize_value` of each string in *values*, in one pass.

    The values are joined by :data:`_WALL` and every step of the recipe
    runs once over the joined text; splitting at the walls gives each
    value's result, bit for bit.  A value that itself holds a NUL would
    shift the walls, so such a batch is normalized value by value.  One
    non-ASCII value sends the whole joined text through the accent pass.
    """
    joined = _WALL.join(values)
    if joined.count(_WALL) != len(values) - 1:
        return [normalize_value(value) for value in values]
    text = _canonical(joined)
    # A collapsed run next to a wall leaves one space at a value's end.
    norms = list(map(str.strip, " ".join(text.split()).split(_WALL)))
    if not _NULLS.isdisjoint(norms):
        # A null spelling normalizes to itself, so only these few values
        # need the raw check.
        norms = [
            "" if norm in _NULLS and value.lower() in _NULLS else norm
            for value, norm in zip(values, norms)
        ]
    return norms


def tokens_of(value: object) -> list[str]:
    """Split a normalized attribute value into plain word tokens."""
    normalized = normalize_value(value)
    if not normalized:
        return []
    return normalized.split(" ")
