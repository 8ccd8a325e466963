"""Perturbation-mask sampling (the *Perturbation generation* block).

The interpretable space of a token-level explainer is the binary hypercube
over the instance's tokens: mask bit *j* says whether token *j* survives.
Following LIME's text sampler, each perturbation first draws the number of
tokens to deactivate uniformly from ``1..d`` and then chooses that many
positions without replacement — this covers all perturbation sizes instead
of concentrating around d/2 like i.i.d. coin flips would.

The first row is always the unperturbed all-ones mask, so the surrogate is
anchored at the instance being explained.

Sampled rows are **distinct** whenever the hypercube permits: a naive
sampler frequently redraws the same mask (at small ``n_features`` the
all-zeros row alone recurs ``n_samples / n_features`` times in
expectation), which silently shrinks the effective perturbation budget and
over-weights the repeated points in the surrogate fit.  Duplicate draws
are therefore resampled, topping up from the unused remainder of the
hypercube when random redraws stall; only once every admissible mask has
been emitted (``n_samples - 1 > 2^d - 1``) do duplicates appear.
"""

from __future__ import annotations

import numpy as np

#: Enumerating the hypercube to top up a stalled sampler is only attempted
#: below this dimensionality (2^20 rows); stalls are impossible above it.
_ENUMERATION_LIMIT = 20


def _draw_row(n_features: int, rng: np.random.Generator) -> np.ndarray:
    """One LIME-style perturbation: deactivate 1..d uniformly-chosen tokens."""
    n_off = int(rng.integers(1, n_features + 1))
    off_positions = rng.choice(n_features, size=n_off, replace=False)
    row = np.ones(n_features, dtype=np.int8)
    row[off_positions] = 0
    return row


def _missing_rows(
    n_features: int,
    seen: set[bytes],
    count: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """*count* not-yet-seen masks (≥ 1 removal), in rng-shuffled order.

    The candidate block is built with one numpy bit-unpack over the
    unseen patterns instead of ``2^d`` per-bit Python generators; candidate
    order (ascending pattern) and rng consumption (one full-length
    permutation) are unchanged, so sampled masks are bit-identical to the
    old enumeration.
    """
    capacity = (1 << n_features) - 1  # excludes the all-ones mask
    unseen = np.ones(capacity, dtype=bool)
    if seen:
        # ``seen`` keys are the little-endian int8 rows; decode them back
        # to hypercube patterns in one shot.
        rows = np.frombuffer(b"".join(seen), dtype=np.int8)
        rows = rows.reshape(len(seen), n_features)
        weights = np.int64(1) << np.arange(n_features, dtype=np.int64)
        codes = rows.astype(np.int64) @ weights
        unseen[codes[codes < capacity]] = False
    patterns = np.flatnonzero(unseen)
    bits = (
        (patterns[:, None] >> np.arange(n_features, dtype=np.int64)) & 1
    ).astype(np.int8)
    order = rng.permutation(len(patterns))
    return [bits[index] for index in order[:count]]


def sample_masks(
    n_features: int,
    n_samples: int,
    rng: np.random.Generator,
    include_original: bool = True,
) -> np.ndarray:
    """Sample a ``(n_samples, n_features)`` binary perturbation matrix.

    With ``include_original`` the first row is all ones (the instance
    itself); remaining rows deactivate between 1 and ``n_features`` tokens
    and are pairwise distinct whenever ``n_features`` permits.
    """
    if n_features < 0:
        raise ValueError(f"n_features must be >= 0, got {n_features}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    masks = np.ones((n_samples, n_features), dtype=np.int8)
    if n_features == 0:
        return masks
    start = 1 if include_original else 0
    target = n_samples - start
    if target <= 0:
        return masks

    # Distinct masks with >= 1 removal available in the hypercube.
    capacity = (1 << n_features) - 1 if n_features <= 62 else None
    distinct_target = target if capacity is None else min(target, capacity)

    rows: list[np.ndarray] = []
    seen: set[bytes] = set()
    budget = 16 * distinct_target + 64
    draws = 0
    while len(rows) < distinct_target and draws < budget:
        draws += 1
        row = _draw_row(n_features, rng)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    if len(rows) < distinct_target and n_features <= _ENUMERATION_LIMIT:
        # Random redraws stalled near saturation: top up deterministically
        # from the unused remainder of the hypercube.
        rows.extend(
            _missing_rows(n_features, seen, distinct_target - len(rows), rng)
        )
    while len(rows) < target:
        # Budget beyond the hypercube: duplicates are unavoidable.
        rows.append(_draw_row(n_features, rng))

    for offset, row in enumerate(rows):
        masks[start + offset] = row
    return masks
