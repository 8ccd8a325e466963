"""Batched character-similarity kernels for columnar feature extraction.

The scalar measures in :mod:`repro.text.similarity` are pure-Python
dynamic programs; called once per distinct (attribute, left, right)
combination they dominate the perturbation hot path (Levenshtein alone is
most of ``predict_proba``'s profile).  The kernels here compute the same
measures for a whole *batch* of string pairs at once: strings are encoded
to padded codepoint matrices and the DP loops run as numpy operations
over the batch dimension, so the Python-level loop count drops from
``O(batch · |a| · |b|)`` to ``O(max |a|)``.

Every entry point runs the same bucketed path: rows are grouped by
``max(len a, len b)`` rounded up to a multiple of :data:`_BUCKET`, and each
group runs at its own width, so a batch of short brand names never pays
for the one long title beside it.  A group of fewer than
:data:`_MIN_ROWS` rows runs with the next wider one, so a small batch pays
for one set of loops.  The Levenshtein DP runs in ``int8`` while the
width allows it.

Bit-identity contract
---------------------
For every input pair the batched result equals the scalar function's
result **exactly** — not approximately.  Levenshtein distances are exact
integers either way, and the float expressions (``1 - d / max_len``, the
Jaro three-term mean, the Winkler prefix boost) are written with the same
operation order as the scalar code, so IEEE-754 rounding agrees bit for
bit.  A row's result never depends on which other rows share its batch or
its bucket.  ``tests/text/test_batch_similarity.py`` enforces this against
the scalar reference on randomized inputs and across bucket edges.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

#: Distinct pad sentinels for the two sides — far above any Unicode
#: codepoint (≤ 0x10FFFF), and unequal to each other so padding positions
#: can never register as character matches.
_PAD_A = np.uint32(0x7FFFFFF0)
_PAD_B = np.uint32(0x7FFFFFF1)

#: Bucket granularity: rows run at ``max(len a, len b)`` rounded up to it.
_BUCKET = 8

#: Fewest rows a bucket runs with; smaller groups join the next wider one.
_MIN_ROWS = 256

# Bitmask constants of the Jaro kernel (see :func:`_words`).
_ONE = np.uint64(1)
_ALL_BITS = np.uint64(2**64 - 1)
_GATHER_BITS = np.uint64(sum(1 << (56 - 7 * t) for t in range(8)))
_TOP_BYTE = np.uint64(56)

#: Rows whose Jaro equality cube (``width²`` bools a row, plus the packing
#: temporaries) is built at a time; bounds the kernel's peak memory.
_JARO_CHUNK = 4096


def _encode(
    values: list[str], lengths: np.ndarray, pad: np.uint32, width: int
) -> np.ndarray:
    """One codepoint row per string, padded to *width*."""
    codes = np.full((len(values), width), pad, dtype=np.uint32)
    # One encode of the concatenation; a row-major boolean scatter lays
    # each string's codepoints into the leading cells of its row.
    codes[np.arange(width) < lengths[:, None]] = np.frombuffer(
        "".join(values).encode("utf-32-le"), dtype=np.uint32
    )
    return codes


def _bucketed(
    a_values: list[str],
    b_values: list[str],
    *kernels: Callable[..., np.ndarray],
    dtype: type = np.float64,
) -> np.ndarray:
    """Run each ``kernel(a_codes, a_lengths, b_codes, b_lengths)`` per bucket.

    Both sides of a bucket are padded to the bucket's width; each kernel's
    per-row results are scattered back into input order, one output row
    per kernel: shape ``(len(kernels), len(a_values))``.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have equal length")
    out = np.empty((len(kernels), len(a_values)), dtype=dtype)
    if not a_values:
        return out
    a_lengths, b_lengths = (
        np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        for values in (a_values, b_values)
    )
    widths = -(-np.maximum(a_lengths, b_lengths) // _BUCKET) * _BUCKET
    a_codes = _encode(a_values, a_lengths, _PAD_A, int(widths.max()))
    b_codes = _encode(b_values, b_lengths, _PAD_B, int(widths.max()))
    pending = np.zeros(len(widths), dtype=bool)
    bucket_widths = np.unique(widths).tolist()
    for width in bucket_widths:
        # A bucket's loops cost numpy calls per column whatever its size:
        # a few rows run with the next wider bucket instead.
        pending |= widths == width
        if pending.sum() < _MIN_ROWS and width != bucket_widths[-1]:
            continue
        rows = np.flatnonzero(pending)
        pending[:] = False
        bucket = (
            a_codes[rows, :width],
            a_lengths[rows],
            b_codes[rows, :width],
            b_lengths[rows],
        )
        for position, kernel in enumerate(kernels):
            out[position, rows] = kernel(*bucket)
    return out


def _levenshtein(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Edit distance per row of one bucket (int64).

    Array form (all rows at once) of the classic two-row DP, laid out
    column-major — DP cell *j* of every row is one contiguous vector — so
    each step is a handful of flat numpy calls over the whole bucket.  The
    insertion dependency (``current[j-1] + 1``) is a min-plus prefix scan,
    computed in ``log2(width)`` doubling steps:
    ``current[j] = min(current[j], current[j-s] + s)`` for ``s = 1, 2, 4…``.
    """
    n, width = b_codes.shape
    # Every cell stays in [0, 2·width + 1] (a DP value ≤ width + 1, plus a
    # shift ≤ width), so narrow buckets run on int8.
    dtype = np.int8 if 2 * width + 1 <= np.iinfo(np.int8).max else np.int32
    result = np.where(a_lengths == 0, b_lengths, 0)
    a_columns = np.ascontiguousarray(a_codes.T)
    b_columns = np.ascontiguousarray(b_codes.T)
    previous = np.repeat(np.arange(width + 1, dtype=dtype)[:, None], n, axis=1)
    current = np.empty_like(previous)
    shifted = np.empty_like(previous)
    mismatch = np.empty((width, n), dtype=bool)
    shifts = [1 << k for k in range(width.bit_length())]
    # Rows grouped by |a|: row r's distance is read at iteration |a_r|.
    order = np.argsort(a_lengths, kind="stable")
    bounds = np.searchsorted(a_lengths[order], np.arange(width + 2))
    for i in range(1, int(a_lengths.max()) + 1):
        # current[j] = min(delete, substitute); the insert term is the scan.
        np.not_equal(b_columns, a_columns[i - 1], out=mismatch)
        current[0] = i
        np.add(previous[:-1], mismatch, out=current[1:])
        np.add(previous[1:], 1, out=shifted[1:])
        np.minimum(current[1:], shifted[1:], out=current[1:])
        for shift in shifts:
            np.add(current[:-shift], shift, out=shifted[shift:])
            np.minimum(current[shift:], shifted[shift:], out=current[shift:])
        done = order[bounds[i] : bounds[i + 1]]
        if len(done):
            result[done] = current[b_lengths[done], done]
        previous, current = current, previous
    return result


def _levenshtein_similarity(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    distances = _levenshtein(a_codes, a_lengths, b_codes, b_lengths)
    # Same expression as the scalar code, 1.0 - distance / longest; a
    # both-empty pair has distance 0 and gets 1.0 - 0 / 1.
    return 1.0 - distances / np.maximum(np.maximum(a_lengths, b_lengths), 1)


def _words(bits: np.ndarray) -> np.ndarray:
    """Pack a bool array's last axis, position *j* to bit ``j % 64`` of
    word ``j // 64``: shape ``(..., ceil(width / 64))`` of uint64.

    Each run of 8 bools is read as one little-endian uint64 of 0/1 bytes,
    and one multiply gathers byte *t* into bit ``56 + t`` (the 64 partial
    products land on distinct bits, so nothing carries).
    """
    *lead, width = bits.shape
    if width % 8:
        bits = np.concatenate(
            [bits, np.zeros((*lead, -width % 8), dtype=bool)], axis=-1
        )
    octets = np.ascontiguousarray(bits).view("<u8").astype(np.uint64, copy=False)
    octets = (octets * _GATHER_BITS) >> _TOP_BYTE
    words = np.zeros((*lead, -(-width // 64)), dtype=np.uint64)
    for q in range(octets.shape[-1]):
        words[..., q // 8] |= octets[..., q] << np.uint64(8 * (q % 8))
    return words


def _jaro(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Jaro similarity per row of one bucket (empty cases handled here).

    The scalar greedy — each a char claims the first unmatched b char
    equal to it inside the window — runs on bitmasks, one uint64 word per
    64 b positions of each row.  ``holding[i]`` marks, per row, the b
    positions that hold ``a[i]`` inside step *i*'s window, built
    :data:`_JARO_CHUNK` rows at a time before the greedy starts, so a step
    is a handful of length-n word operations: the first free candidate is
    the lowest set bit, ``x & -x``.
    """
    n, width = b_codes.shape
    jaro = np.zeros(n, dtype=np.float64)
    jaro[(a_lengths == 0) & (b_lengths == 0)] = 1.0
    live = (a_lengths > 0) & (b_lengths > 0)
    if not live.any():
        return jaro
    window = np.maximum(np.maximum(a_lengths, b_lengths) // 2 - 1, 0)
    positions = np.arange(width)
    distance = np.abs(positions[:, None] - positions)
    # near[w, i]: the positions within w of step i, for every window w.
    near = _words(distance <= np.arange(width // 2 + 1)[:, None, None])
    n_words = near.shape[-1]
    # (step, word, row): each step reads contiguous words.
    holding = np.empty((width, n_words, n), dtype=np.uint64)
    for start in range(0, n, _JARO_CHUNK):
        chunk = slice(start, start + _JARO_CHUNK)
        # Pads never match: an a pad equals no b code and a b pad no a
        # code, so no bit is set past either string's end.
        block = _words(a_codes[chunk, :, None] == b_codes[chunk, None, :])
        block &= near[window[chunk]]
        holding[:, :, chunk] = block.transpose(1, 2, 0)
    open_b = np.full((n_words, n), _ALL_BITS)
    a_flags = np.zeros((width, n), dtype=bool)
    for i in range(int(a_lengths.max())):
        candidates = holding[i] & open_b
        claimed = a_flags[i]
        for k in range(n_words):
            first = candidates[k] & (~candidates[k] + _ONE)
            if k:
                first[claimed] = 0  # an earlier word held the first one
            open_b[k] ^= first
            claimed |= first != 0
    a_flags = a_flags.T
    claimed_b = np.ascontiguousarray(~open_b.T, dtype="<u8")
    b_flags = np.unpackbits(claimed_b.view(np.uint8), axis=1, bitorder="little")
    b_flags = b_flags[:, :width].astype(bool)
    matches = a_flags.sum(axis=1)
    matched = matches > 0
    rows = np.arange(n)
    if matched.any():
        # The scalar transposition walk, batched: boolean selection lists
        # each row's matched characters in order, row after row, and both
        # sides match the same number per row, so the i-th matched a char
        # lines up with the i-th matched b char.
        unequal = a_codes[a_flags] != b_codes[b_flags]
        owner = np.repeat(rows, matches)
        transpositions = np.bincount(owner[unequal], minlength=n) // 2
        m = matches[matched].astype(np.float64)
        t = transpositions[matched].astype(np.float64)
        la = a_lengths[matched].astype(np.float64)
        lb = b_lengths[matched].astype(np.float64)
        # Same three-term expression and order as the scalar code.
        jaro[matched] = (m / la + m / lb + (m - t) / m) / 3.0
    # Equal strings short-circuit to exactly 1.0 in the scalar code.
    equal = live & (a_lengths == b_lengths)
    if equal.any():
        same = ((a_codes == b_codes) | (positions >= a_lengths[:, None])).all(
            axis=1
        )
        jaro[equal & same] = 1.0
    return jaro


def _jaro_winkler(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    prefix_weight: float = 0.1,
) -> np.ndarray:
    jaro = _jaro(a_codes, a_lengths, b_codes, b_lengths)
    # Leading run of equal characters (≤ 4); pad sentinels differ so the
    # run stops at min(len a, len b) automatically.
    prefix = np.cumprod(a_codes[:, :4] == b_codes[:, :4], axis=1).sum(axis=1)
    # Same expression and order as the scalar code.
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def levenshtein_distance_batch(
    a_values: list[str], b_values: list[str]
) -> np.ndarray:
    """Edit distance per pair, shape ``(len(a_values),)`` of int64."""
    return _bucketed(a_values, b_values, _levenshtein, dtype=np.int64)[0]


def levenshtein_similarity_batch(
    a_values: list[str], b_values: list[str]
) -> np.ndarray:
    """Normalized edit similarity per pair (both-empty pairs → 1.0)."""
    return _bucketed(a_values, b_values, _levenshtein_similarity)[0]


def jaro_winkler_similarity_batch(
    a_values: list[str],
    b_values: list[str],
    prefix_weight: float = 0.1,
) -> np.ndarray:
    """Jaro-Winkler similarity per pair, shape ``(len(a_values),)``."""
    kernel = partial(_jaro_winkler, prefix_weight=prefix_weight)
    return _bucketed(a_values, b_values, kernel)[0]


def char_similarities_batch(
    a_values: list[str], b_values: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``(levenshtein_similarity, jaro_winkler_similarity)`` per pair.

    The feature extractor's combined entry point: both quadratic
    character measures from one string encoding pass.
    """
    levenshtein, jaro_winkler = _bucketed(
        a_values, b_values, _levenshtein_similarity, _jaro_winkler
    )
    return levenshtein, jaro_winkler
