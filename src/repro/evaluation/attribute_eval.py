"""Attribute-based reliability evaluation (the paper's Table 3).

The EM model (Logistic Regression) exposes attribute-level importances:
Σ|coefficient| over each attribute's feature group.  The surrogate exposes
the same thing by summing the absolute weights of each attribute's tokens.
If the explanation is faithful, the two *rankings* of attributes agree;
agreement is scored with the weighted Kendall tau (top-ranked attributes
matter more), averaged over the explained records.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.evaluation.methods import ExplainedRecord
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class AttributeEvalResult:
    """Mean weighted-Kendall correlation over a set of explained records."""

    kendall: float
    n_records: int

    def as_row(self) -> dict[str, float]:
        return {"kendall": self.kendall, "n": self.n_records}


def attribute_correlation(
    explained: ExplainedRecord,
    model_importance: Mapping[str, float],
) -> float:
    """Weighted Kendall tau between model and surrogate attribute rankings.

    With a single attribute the rankings agree trivially (1.0).  Constant
    importance vectors (all attributes equal) correlate at 0.0 by
    convention — there is no ranking to agree with.
    """
    attributes = list(explained.pair.schema.attributes)
    if not set(attributes) <= set(model_importance):
        missing = sorted(set(attributes) - set(model_importance))
        raise ConfigurationError(f"model importance missing attributes: {missing}")
    if len(attributes) == 1:
        return 1.0
    model_scores = np.array([model_importance[a] for a in attributes])
    surrogate_scores = np.array(
        [explained.attribute_importance.get(a, 0.0) for a in attributes]
    )
    if np.ptp(model_scores) == 0.0 or np.ptp(surrogate_scores) == 0.0:
        return 0.0
    from scipy import stats

    result = stats.weightedtau(model_scores, surrogate_scores)
    statistic = float(result.statistic)
    if np.isnan(statistic):
        return 0.0
    return statistic


def attribute_eval(
    explained_records: Sequence[ExplainedRecord],
    model_importance: Mapping[str, float],
) -> AttributeEvalResult:
    """Average the per-record correlation."""
    correlations = [
        attribute_correlation(explained, model_importance)
        for explained in explained_records
    ]
    if not correlations:
        return AttributeEvalResult(kendall=0.0, n_records=0)
    return AttributeEvalResult(
        kendall=float(np.mean(correlations)), n_records=len(correlations)
    )
