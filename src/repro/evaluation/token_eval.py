"""Token-based reliability evaluation (the paper's Table 2).

Protocol, per explained record (Sec. 4.2.1):

1. remove 25% of the record's tokens, chosen uniformly at random;
2. ask the EM model for the probability of the reduced record (``p_new``);
3. estimate the same probability from the explanation:
   ``p_est = p_original − Σ coefficients of the removed tokens``;
4. score **MAE** ``|p_new − p_est|`` and **accuracy** (do ``p_new`` and
   ``p_est`` land on the same side of the decision threshold?).

A reliable surrogate produces ``p_est ≈ p_new``: its coefficients really
are the marginal contributions the model assigns to the tokens.
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
class TokenEvalResult:
    """Aggregated token-removal metrics over a set of explained records."""

    accuracy: float
    mae: float
    n_trials: int

    def as_row(self) -> dict[str, float]:
        return {"accuracy": self.accuracy, "mae": self.mae, "n": self.n_trials}


def token_removal_trial(
    explained: ExplainedRecord,
    matcher: EntityMatcher,
    rng: np.random.Generator,
    fraction: float = 0.25,
    original_probability: float | None = None,
) -> tuple[float, float]:
    """One removal trial; returns ``(p_new, p_est)``.

    ``original_probability`` lets callers reuse a cached model call for the
    unperturbed record.
    """
    entries = explained.token_weights.entries
    if not entries:
        raise ConfigurationError("cannot run a removal trial without token weights")
    n_remove = max(1, int(round(fraction * len(entries))))
    n_remove = min(n_remove, len(entries))
    chosen = rng.choice(len(entries), size=n_remove, replace=False)
    removed = [entries[int(index)] for index in chosen]
    reduced = removal_batch(
        explained.pair, [[entry.key for entry in removed]]
    ).pairs()[0]
    if original_probability is None:
        original_probability = matcher.predict_one(explained.pair)
    p_new = matcher.predict_one(reduced)
    p_est = original_probability - sum(entry.weight for entry in removed)
    return p_new, p_est


def token_removal_eval(
    explained_records: Sequence[ExplainedRecord],
    matcher: EntityMatcher,
    fraction: float = 0.25,
    threshold: float = DEFAULT_THRESHOLD,
    trials_per_record: int = 1,
    seed: int = 0,
) -> TokenEvalResult:
    """Aggregate accuracy and MAE over records (and trials per record)."""
    if trials_per_record < 1:
        raise ConfigurationError(
            f"trials_per_record must be >= 1, got {trials_per_record}"
        )
    rng = np.random.default_rng(seed)
    errors: list[float] = []
    agreements: list[bool] = []
    for explained in explained_records:
        if not explained.token_weights.entries:
            continue
        original_probability = matcher.predict_one(explained.pair)
        for _ in range(trials_per_record):
            p_new, p_est = token_removal_trial(
                explained,
                matcher,
                rng,
                fraction=fraction,
                original_probability=original_probability,
            )
            errors.append(abs(p_new - p_est))
            agreements.append((p_new >= threshold) == (p_est >= threshold))
    if not errors:
        return TokenEvalResult(accuracy=0.0, mae=0.0, n_trials=0)
    return TokenEvalResult(
        accuracy=float(np.mean(agreements)),
        mae=float(np.mean(errors)),
        n_trials=len(errors),
    )
