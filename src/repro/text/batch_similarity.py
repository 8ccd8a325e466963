"""Batched character-similarity kernels for columnar feature extraction.

The scalar measures in :mod:`repro.text.similarity` are pure-Python
dynamic programs; called once per distinct (attribute, left, right)
combination they dominate the perturbation hot path (Levenshtein alone is
most of ``predict_proba``'s profile).  The kernels here compute the same
measures for a whole *batch* of string pairs at once: strings are encoded
to padded codepoint matrices and the DP loops run as numpy operations
over the batch dimension, so the Python-level loop count drops from
``O(batch · |a| · |b|)`` to ``O(max |a|)``.

Bit-identity contract
---------------------
For every input pair the batched result equals the scalar function's
result **exactly** — not approximately.  Levenshtein distances are exact
integers either way, and the float expressions (``1 - d / max_len``, the
Jaro three-term mean, the Winkler prefix boost) are written with the same
operation order as the scalar code, so IEEE-754 rounding agrees bit for
bit.  ``tests/text/test_batch_similarity.py`` enforces this against the
scalar reference on randomized inputs.
"""

from __future__ import annotations

import numpy as np

#: Distinct pad sentinels for the two sides — far above any Unicode
#: codepoint (≤ 0x10FFFF), and unequal to each other so padding positions
#: can never register as character matches.
_PAD_A = np.uint32(0x7FFFFFF0)
_PAD_B = np.uint32(0x7FFFFFF1)


def _encode(values: list[str], pad: np.uint32) -> tuple[np.ndarray, np.ndarray]:
    """(codes, lengths): one padded codepoint row per string."""
    lengths = np.fromiter(
        (len(value) for value in values), dtype=np.int64, count=len(values)
    )
    width = int(lengths.max()) if len(values) else 0
    codes = np.full((len(values), width), pad, dtype=np.uint32)
    # One encode of the concatenation; a row-major boolean scatter lays
    # each string's codepoints into the leading cells of its row.
    codes[np.arange(width) < lengths[:, None]] = np.frombuffer(
        "".join(values).encode("utf-32-le"), dtype=np.uint32
    )
    return codes, lengths


def levenshtein_distance_batch(
    a_values: list[str], b_values: list[str]
) -> np.ndarray:
    """Edit distance per pair, shape ``(len(a_values),)`` of int64.

    Array form (all rows at once) of the classic two-row DP.  The insertion
    dependency (``current[j-1] + 1``) is a min-plus prefix scan, computed
    with the ``cummin(base - j) + j`` identity so each outer iteration is
    a handful of numpy calls over the whole batch.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have equal length")
    if not a_values:
        return np.empty(0, dtype=np.int64)
    a_codes, a_lengths = _encode(a_values, _PAD_A)
    b_codes, b_lengths = _encode(b_values, _PAD_B)
    return _levenshtein_from_codes(a_codes, a_lengths, b_codes, b_lengths)


def _levenshtein_from_codes(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    n = a_codes.shape[0]
    result = np.empty(n, dtype=np.int64)
    max_a = a_codes.shape[1]
    max_b = b_codes.shape[1]
    offsets = np.arange(max_b + 1, dtype=np.int64)
    previous = np.broadcast_to(offsets, (n, max_b + 1)).copy()
    result[a_lengths == 0] = b_lengths[a_lengths == 0]
    base = np.empty((n, max_b + 1), dtype=np.int64)
    for i in range(1, max_a + 1):
        # base[j] = min(delete, substitute); the insert term is the scan.
        substitution_cost = (a_codes[:, i - 1 : i] != b_codes).astype(np.int64)
        base[:, 0] = i
        if max_b:
            np.minimum(
                previous[:, 1:] + 1,
                previous[:, :-1] + substitution_cost,
                out=base[:, 1:],
            )
        current = (
            np.minimum.accumulate(base - offsets, axis=1) + offsets
        )
        done = a_lengths == i
        if done.any():
            result[done] = current[done, b_lengths[done]]
        previous = current
    return result


def levenshtein_similarity_batch(
    a_values: list[str], b_values: list[str]
) -> np.ndarray:
    """Normalized edit similarity per pair (both-empty pairs → 1.0)."""
    a_lengths = np.fromiter(
        (len(value) for value in a_values), dtype=np.int64, count=len(a_values)
    )
    b_lengths = np.fromiter(
        (len(value) for value in b_values), dtype=np.int64, count=len(b_values)
    )
    longest = np.maximum(a_lengths, b_lengths)
    distances = levenshtein_distance_batch(a_values, b_values)
    out = np.ones(len(a_values), dtype=np.float64)
    nonempty = longest > 0
    # Same expression as the scalar code: 1.0 - distance / longest.
    out[nonempty] = 1.0 - distances[nonempty] / longest[nonempty]
    return out


def _jaro_batch(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Jaro similarity from pre-encoded rows (empty cases handled here)."""
    n = a_codes.shape[0]
    max_a = a_codes.shape[1]
    max_b = b_codes.shape[1]
    jaro = np.zeros(n, dtype=np.float64)
    both_empty = (a_lengths == 0) & (b_lengths == 0)
    jaro[both_empty] = 1.0
    live = (a_lengths > 0) & (b_lengths > 0)
    if not live.any():
        return jaro
    window = np.maximum(np.maximum(a_lengths, b_lengths) // 2 - 1, 0)
    a_flags = np.zeros((n, max_a), dtype=bool)
    b_flags = np.zeros((n, max_b), dtype=bool)
    b_positions = np.arange(max_b, dtype=np.int64)
    rows = np.arange(n)
    for i in range(max_a):
        # The scalar greedy: the first unmatched b char equal to a[i]
        # inside the window claims the match.  argmax finds that first
        # position per row in one shot.
        in_window = (b_positions >= i - window[:, None]) & (
            b_positions < np.minimum(i + window[:, None] + 1, b_lengths[:, None])
        )
        candidates = (
            (b_codes == a_codes[:, i : i + 1])
            & ~b_flags
            & in_window
            & live[:, None]
            & (i < a_lengths)[:, None]
        )
        first = candidates.argmax(axis=1)
        found = candidates[rows, first]
        b_flags[rows[found], first[found]] = True
        a_flags[found, i] = True
    matches = a_flags.sum(axis=1)
    matched = live & (matches > 0)
    if matched.any():
        # Compact the matched characters of each side in original order
        # (stable sort keyed on "unmatched"), then count mismatched
        # aligned positions — the scalar transposition walk, batched.
        a_order = np.argsort(~a_flags, axis=1, kind="stable")
        b_order = np.argsort(~b_flags, axis=1, kind="stable")
        a_matched = np.take_along_axis(a_codes, a_order, axis=1)
        b_matched = np.take_along_axis(b_codes, b_order, axis=1)
        width = min(max_a, max_b)
        aligned = np.arange(width) < matches[:, None]
        unequal = (a_matched[:, :width] != b_matched[:, :width]) & aligned
        transpositions = unequal.sum(axis=1) // 2
        m = matches[matched].astype(np.float64)
        t = transpositions[matched].astype(np.float64)
        la = a_lengths[matched].astype(np.float64)
        lb = b_lengths[matched].astype(np.float64)
        # Same three-term expression and order as the scalar code.
        jaro[matched] = (m / la + m / lb + (m - t) / m) / 3.0
    # Equal strings short-circuit to exactly 1.0 in the scalar code.
    equal = live & (a_lengths == b_lengths)
    if equal.any():
        width = min(max_a, max_b)
        same = np.ones(n, dtype=bool)
        if width:
            padded_equal = (
                a_codes[:, :width] == b_codes[:, :width]
            ) | (np.arange(width) >= a_lengths[:, None])
            same = padded_equal.all(axis=1)
        jaro[equal & same] = 1.0
    return jaro


def _winkler_boost(
    jaro: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    prefix_weight: float,
) -> np.ndarray:
    width = min(4, a_codes.shape[1], b_codes.shape[1])
    if width:
        # Leading run of equal characters; pad sentinels differ so the
        # run stops at min(len a, len b) automatically.
        equal = a_codes[:, :width] == b_codes[:, :width]
        prefix = np.cumprod(equal, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(len(jaro), dtype=np.int64)
    # Same expression and order as the scalar code.
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaro_winkler_similarity_batch(
    a_values: list[str],
    b_values: list[str],
    prefix_weight: float = 0.1,
) -> np.ndarray:
    """Jaro-Winkler similarity per pair, shape ``(len(a_values),)``."""
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have equal length")
    if not a_values:
        return np.empty(0, dtype=np.float64)
    a_codes, a_lengths = _encode(a_values, _PAD_A)
    b_codes, b_lengths = _encode(b_values, _PAD_B)
    jaro = _jaro_batch(a_codes, a_lengths, b_codes, b_lengths)
    return _winkler_boost(jaro, a_codes, b_codes, prefix_weight)


def char_similarities_batch(
    a_values: list[str], b_values: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``(levenshtein_similarity, jaro_winkler_similarity)`` per pair.

    The feature extractor's combined entry point: both quadratic
    character measures from one string encoding pass.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have equal length")
    n = len(a_values)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    a_codes, a_lengths = _encode(a_values, _PAD_A)
    b_codes, b_lengths = _encode(b_values, _PAD_B)
    longest = np.maximum(a_lengths, b_lengths)
    distances = _levenshtein_from_codes(a_codes, a_lengths, b_codes, b_lengths)
    levenshtein = np.ones(n, dtype=np.float64)
    nonempty = longest > 0
    levenshtein[nonempty] = 1.0 - distances[nonempty] / longest[nonempty]
    jaro = _jaro_batch(a_codes, a_lengths, b_codes, b_lengths)
    return levenshtein, _winkler_boost(jaro, a_codes, b_codes, 0.1)
