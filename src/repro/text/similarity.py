"""From-scratch string and token-set similarity measures.

These are the similarity primitives that the Magellan-style feature
extractor (:mod:`repro.matchers.features`) builds per-attribute features
from.  Every function returns a similarity in ``[0, 1]`` (higher = more
similar) unless its name says *distance*.

All functions treat the empty string / empty token set uniformly: two empty
inputs are perfectly similar (1.0); an empty vs. a non-empty input is
maximally dissimilar (0.0).  That convention keeps missing attribute values
(common in the dirty Magellan variants) from producing NaNs downstream.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def _both_empty(a: Sequence | str, b: Sequence | str) -> bool:
    return len(a) == 0 and len(b) == 0


def exact_match(a: str, b: str) -> float:
    """1.0 when the two strings are identical, else 0.0."""
    return 1.0 if a == b else 0.0


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance (insert / delete / substitute, all cost 1).

    Classic two-row dynamic program: O(len(a) * len(b)) time, O(min) space.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            substitution = previous[j - 1] + (char_a != char_b)
            current.append(min(previous[j] + 1, current[j - 1] + 1, substitution))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalized to a similarity: ``1 - d / max(len)``."""
    if _both_empty(a, b):
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity: transposition-aware common-character ratio."""
    if _both_empty(a, b):
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - window)
        stop = min(i + window + 1, len(b))
        for j in range(start, stop):
            if not b_flags[j] and b[j] == char_a:
                a_flags[i] = True
                b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_flags):
        if not matched:
            continue
        while not b_flags[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix (≤ 4)."""
    jaro = jaro_similarity(a, b)
    prefix_len = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix_len += 1
    return jaro + prefix_len * prefix_weight * (1.0 - jaro)


def jaccard_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Jaccard index over token *sets*: |A ∩ B| / |A ∪ B|."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def overlap_coefficient(a: Sequence[str], b: Sequence[str]) -> float:
    """Szymkiewicz-Simpson overlap: |A ∩ B| / min(|A|, |B|)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def dice_coefficient(a: Sequence[str], b: Sequence[str]) -> float:
    """Sørensen-Dice: 2 |A ∩ B| / (|A| + |B|)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def monge_elkan_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Monge-Elkan: mean over tokens of A of the best Jaro-Winkler in B.

    Asymmetric in general; we symmetrize by averaging the two directions so
    the feature extractor does not depend on left/right ordering.
    """
    if _both_empty(a, b):
        return 1.0
    if not a or not b:
        return 0.0

    def directed(source: Sequence[str], target: Sequence[str]) -> float:
        total = 0.0
        for token in source:
            total += max(jaro_winkler_similarity(token, other) for other in target)
        return total / len(source)

    return (directed(a, b) + directed(b, a)) / 2.0


def numeric_similarity(a: str, b: str) -> float:
    """Similarity of two numeric-looking strings via relative difference.

    ``1 - |x - y| / max(|x|, |y|)`` clamped to ``[0, 1]``.  Returns 0.0 when
    either side does not parse as a *finite* number (so the feature stays
    informative for genuinely numeric attributes and neutral-low elsewhere),
    and 1.0 when both sides are empty.  The finiteness check matters:
    ``float("nan")`` parses, and letting it through would poison the whole
    feature vector with NaN arithmetic.
    """
    if _both_empty(a, b):
        return 1.0
    try:
        x = float(a)
        y = float(b)
    except ValueError:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return 0.0
    if x == y:
        return 1.0
    denominator = max(abs(x), abs(y))
    if denominator == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(x - y) / denominator)
