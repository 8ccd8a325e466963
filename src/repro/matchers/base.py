"""The matcher interface every EM model in this library implements.

Landmark Explanation treats the EM model as a black box exposing exactly one
capability: *score a batch of record pairs with a match probability*.  That
is the :meth:`EntityMatcher.predict_proba` contract.  Everything else
(training, thresholds, reports) is convenience built on top of it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarPairBatch

#: The decision threshold the paper uses (it also discusses 0.4).
DEFAULT_THRESHOLD = 0.5


def batch_matmul(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights`` whose row *i* does not depend on the batch size.

    BLAS takes a different summation route for a single row than for a
    matrix of rows, so a one-row batch would score its row differently
    from the same row inside a larger batch.  A single row is multiplied
    as two copies of itself instead.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ weights)[:1]
    return rows @ weights


class EntityMatcher(ABC):
    """Abstract base class of every EM model."""

    @abstractmethod
    def fit(self, dataset: EMDataset) -> "EntityMatcher":
        """Train on a labelled dataset and return self."""

    @abstractmethod
    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Match probabilities, shape ``(len(pairs),)``, values in [0, 1]."""

    def predict_proba_columnar(self, batch: "ColumnarPairBatch") -> np.ndarray:
        """Match probabilities for a columnar perturbation batch.

        The contract mirrors :meth:`predict_proba` — shape
        ``(batch.n_rows,)`` — with one hard extra requirement: row *i*'s
        probability must be **bit-identical** to what ``predict_proba``
        would return for the materialized pair of row *i*, whatever batch
        it rides in (the prediction engine's equivalence bar).  This
        default materializes the rows and calls ``predict_proba``, which
        meets the contract by construction; matchers with a native
        columnar kernel override it.
        """
        return self.predict_proba(batch.pairs())

    def predict(
        self,
        pairs: Sequence[RecordPair],
        threshold: float = DEFAULT_THRESHOLD,
    ) -> np.ndarray:
        """Hard labels derived from :meth:`predict_proba` at *threshold*."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def predict_one(self, pair: RecordPair) -> float:
        """Match probability of a single pair."""
        return float(self.predict_proba([pair])[0])


def columnar_scorer(matcher) -> Callable[["ColumnarPairBatch"], np.ndarray]:
    """The function that scores a columnar batch with *matcher*.

    Duck-typed on purpose: test doubles and counting or fault-injection
    shims that only implement ``predict_proba`` score the materialized
    rows, as :meth:`EntityMatcher.predict_proba_columnar`'s default does.
    Anything without a callable ``predict_proba`` is refused.
    """
    if not callable(getattr(matcher, "predict_proba", None)):
        raise ConfigurationError(
            f"expected a matcher (predict_proba), got {type(matcher).__name__}"
        )
    columnar = getattr(matcher, "predict_proba_columnar", None)
    if columnar is not None:
        return columnar
    return lambda batch: matcher.predict_proba(batch.pairs())
