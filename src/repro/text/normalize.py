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
    if not text or text.lower() in {"nan", "none", "null"}:
        return ""
    # Accent stripping first: NFKD can surface new uppercase base characters
    # (e.g. the math-bold '𝑨' decomposes to 'A'), so lower-casing must follow.
    text = strip_accents(text).lower().translate(_PUNCT_TABLE)
    return normalize_whitespace(text)


def tokens_of(value: object) -> list[str]:
    """Split a normalized attribute value into plain word tokens."""
    normalized = normalize_value(value)
    if not normalized:
        return []
    return normalized.split(" ")
