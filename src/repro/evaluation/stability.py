"""Explanation stability: do repeated explanations agree with themselves?

Perturbation explainers are stochastic — the sampled masks differ run to
run.  An explanation whose token ranking changes with the seed cannot be
trusted by the user no matter how faithful its surrogate is, so stability
is a standard complementary metric in the XAI literature (it is not in the
paper's tables; we add it as an extension, checked on S-FZ by
``tests/evaluation/test_stability.py``).

Stability of one record = the mean pairwise Spearman correlation between
the token-weight vectors produced by *n_runs* independently seeded
explanations of that record.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.explanation import PairTokenWeights
from repro.data.records import RecordPair
from repro.exceptions import ConfigurationError

#: A factory producing per-token weights for a pair, given a seed.
ExplainFn = Callable[[RecordPair, int], PairTokenWeights]


@dataclass(frozen=True)
class StabilityResult:
    """Aggregated self-agreement of an explanation method."""

    mean_correlation: float
    per_record: tuple[float, ...]
    n_runs: int

    def render(self) -> str:
        return (
            f"stability over {len(self.per_record)} records × {self.n_runs} "
            f"runs: mean Spearman {self.mean_correlation:.3f}"
        )


def _aligned_weight_matrix(runs: Sequence[PairTokenWeights]) -> np.ndarray:
    """Stack runs into (n_runs, n_tokens) aligned on token keys."""
    keys = sorted(entry.key for entry in runs[0].entries)
    matrix = np.empty((len(runs), len(keys)))
    for row, weights in enumerate(runs):
        for column, key in enumerate(keys):
            matrix[row, column] = weights.weight(*key)
    return matrix


def record_stability(runs: Sequence[PairTokenWeights]) -> float:
    """Mean pairwise Spearman correlation across runs for one record.

    Records with a single token (no ranking to compare) score 1.0;
    degenerate constant weight vectors score 0.0 against anything.
    """
    if len(runs) < 2:
        raise ConfigurationError("stability needs at least 2 runs")
    matrix = _aligned_weight_matrix(runs)
    if matrix.shape[1] < 2:
        return 1.0
    from scipy import stats

    correlations = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            if np.ptp(matrix[i]) == 0.0 or np.ptp(matrix[j]) == 0.0:
                correlations.append(0.0)
                continue
            rho = stats.spearmanr(matrix[i], matrix[j]).statistic
            correlations.append(0.0 if np.isnan(rho) else float(rho))
    return float(np.mean(correlations))


def stability_eval(
    pairs: Sequence[RecordPair],
    explain: ExplainFn,
    n_runs: int = 3,
    base_seed: int = 0,
) -> StabilityResult:
    """Stability of *explain* over *pairs*.

    *explain* is called with ``(pair, seed)`` for ``n_runs`` distinct seeds
    per record; seeds are derived from *base_seed* so the whole evaluation
    is reproducible.
    """
    if n_runs < 2:
        raise ConfigurationError(f"n_runs must be >= 2, got {n_runs}")
    per_record = []
    for pair in pairs:
        runs = [
            explain(pair, base_seed + 1000 * run_index + 1)
            for run_index in range(n_runs)
        ]
        per_record.append(record_stability(runs))
    if not per_record:
        return StabilityResult(mean_correlation=0.0, per_record=(), n_runs=n_runs)
    return StabilityResult(
        mean_correlation=float(np.mean(per_record)),
        per_record=tuple(per_record),
        n_runs=n_runs,
    )
