"""Faithfulness curves: deletion AUC against a random-order baseline.

A sharper instrument than single-shot token removal (Table 2): delete the
record's tokens *in the order the explanation ranks them* and watch the
model's match probability.  If the explanation is faithful, deleting the
highest-weighted tokens first moves the probability much faster than
deleting tokens in random order.

For a record the model calls **matching**, tokens are deleted most-positive
first and the probability should *fall* quickly — faithfulness is the area
*under* the random curve minus the area under the ordered curve.  For a
**non-matching** record, tokens are deleted most-negative first and the
probability should *rise* quickly — the sign flips.  Either way, a
positive ``gain`` means the explanation orders tokens better than chance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.columnar import removal_batch
from repro.evaluation.methods import ExplainedRecord
from repro.exceptions import ConfigurationError
from repro.matchers.base import DEFAULT_THRESHOLD, EntityMatcher


@dataclass(frozen=True)
class FaithfulnessResult:
    """Aggregated deletion-curve statistics for a set of explained records."""

    gain: float
    auc_ordered: float
    auc_random: float
    n_records: int

    def render(self) -> str:
        return (
            f"faithfulness over {self.n_records} records: "
            f"ordered AUC {self.auc_ordered:.3f} vs random {self.auc_random:.3f} "
            f"(gain {self.gain:+.3f})"
        )


def deletion_curve(
    explained: ExplainedRecord,
    matcher: EntityMatcher,
    order: Sequence[int],
    max_steps: int = 12,
) -> np.ndarray:
    """Probabilities along a cumulative-deletion path.

    ``order`` indexes ``explained.token_weights.entries``; tokens are
    removed cumulatively in that order, grouped into at most *max_steps*
    batches so long records stay cheap.  The first point is the untouched
    record.  Every point's pair is one row of a single
    :func:`~repro.core.columnar.removal_batch`.
    """
    entries = explained.token_weights.entries
    if len(order) != len(entries):
        raise ConfigurationError(
            f"order length {len(order)} != token count {len(entries)}"
        )
    boundaries = np.unique(
        np.linspace(0, len(entries), num=min(max_steps, len(entries)) + 1)
        .round()
        .astype(int)
    )
    key_sets = [
        [entries[index].key for index in order[:boundary]]
        for boundary in boundaries
    ]
    return matcher.predict_proba_columnar(
        removal_batch(explained.pair, key_sets)
    )


def _record_gain(
    explained: ExplainedRecord,
    matcher: EntityMatcher,
    toward_non_match: bool,
    rng: np.random.Generator,
    n_random: int,
    max_steps: int,
) -> tuple[float, float]:
    """(ordered, random) deletion AUCs of one record with >= 2 tokens."""
    entries = explained.token_weights.entries
    weights = np.array([entry.weight for entry in entries])
    if toward_non_match:
        ordered = np.argsort(-weights)  # strongest match evidence first
    else:
        ordered = np.argsort(weights)  # strongest mismatch evidence first
    ordered_curve = deletion_curve(explained, matcher, list(ordered), max_steps)
    random_aucs = []
    for _ in range(n_random):
        permutation = rng.permutation(len(entries))
        random_curve = deletion_curve(
            explained, matcher, list(permutation), max_steps
        )
        random_aucs.append(float(random_curve.mean()))
    auc_ordered = float(ordered_curve.mean())
    auc_random = float(np.mean(random_aucs))
    return auc_ordered, auc_random


def faithfulness_eval(
    explained_records: Sequence[ExplainedRecord],
    matcher: EntityMatcher,
    n_random: int = 3,
    max_steps: int = 12,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
) -> FaithfulnessResult:
    """Mean deletion-curve gain of a method over records.

    Per record the gain is signed so that *positive always means better
    than random*: for match records ``random − ordered`` (probability
    should fall faster), for non-match records ``ordered − random``.
    """
    if n_random < 1:
        raise ConfigurationError(f"n_random must be >= 1, got {n_random}")
    rng = np.random.default_rng(seed)
    gains = []
    ordered_aucs = []
    random_aucs = []
    for explained in explained_records:
        if len(explained.token_weights.entries) < 2:
            continue
        toward_non_match = matcher.predict_one(explained.pair) >= threshold
        auc_ordered, auc_random = _record_gain(
            explained, matcher, toward_non_match, rng, n_random, max_steps
        )
        ordered_aucs.append(auc_ordered)
        random_aucs.append(auc_random)
        if toward_non_match:
            gains.append(auc_random - auc_ordered)
        else:
            gains.append(auc_ordered - auc_random)
    if not gains:
        return FaithfulnessResult(0.0, 0.0, 0.0, 0)
    return FaithfulnessResult(
        gain=float(np.mean(gains)),
        auc_ordered=float(np.mean(ordered_aucs)),
        auc_random=float(np.mean(random_aucs)),
        n_records=len(gains),
    )
