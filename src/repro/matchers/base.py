"""The matcher interface every EM model in this library implements.

Landmark Explanation treats the EM model as a black box exposing exactly one
capability: *score a batch of record pairs with a match probability*.  That
is the :meth:`EntityMatcher.predict_proba` contract.  Everything else
(training, thresholds, reports) is convenience built on top of it.

The trainable matchers share one training policy, kept here: the label
checks of :func:`training_labels` and the class weights of
:func:`class_weights`.  :class:`FeatureMatcher` is the skeleton of the
models over similarity features.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.columnar import ColumnarPairBatch, pairs_batch
from repro.data.records import EMDataset, RecordPair
from repro.exceptions import ConfigurationError, DatasetError, ModelNotFittedError
from repro.matchers.features import PairFeatureExtractor

#: The decision threshold the paper uses (it also discusses 0.4).
DEFAULT_THRESHOLD = 0.5


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def training_labels(dataset: EMDataset) -> np.ndarray:
    """*dataset*'s labels as floats; refuses data no matcher can learn from."""
    if len(dataset) < 2:
        raise DatasetError("need at least 2 pairs to fit")
    labels = dataset.labels.astype(np.float64)
    if labels.min() == labels.max():
        raise DatasetError("training data contains a single class")
    return labels


def class_weights(labels: np.ndarray, balanced: bool) -> np.ndarray:
    """Per-pair training weights: ones, or inverse class frequency.

    The match class is rare in every benchmark dataset and would be
    drowned out without the *balanced* weights.
    """
    weights = np.ones(len(labels))
    if balanced:
        n_match = labels.sum()
        n_non_match = len(labels) - n_match
        weights[labels == 1] = len(labels) / (2.0 * n_match)
        weights[labels == 0] = len(labels) / (2.0 * n_non_match)
    return weights


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

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
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


def columnar_scorer(matcher) -> Callable[[ColumnarPairBatch], np.ndarray]:
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


class FeatureMatcher(EntityMatcher):
    """A model over :class:`PairFeatureExtractor` similarity features.

    :meth:`fit` checks the labels, extracts the training features and
    hands both to the subclass's ``_train``; the extractor is kept only
    once training succeeded, so it marks the model fitted.  A subclass
    scores in its own ``predict_proba_columnar``.  One that standardizes
    its features starts ``_mean`` and ``_scale`` at None.
    """

    extractor: PairFeatureExtractor | None
    _mean: np.ndarray | None
    _scale: np.ndarray | None

    def fit(self, dataset: EMDataset) -> "FeatureMatcher":
        labels = training_labels(dataset)
        extractor = PairFeatureExtractor(dataset.schema)
        self._train(extractor.transform(dataset.pairs), labels)
        self.extractor = extractor
        return self

    @abstractmethod
    def _train(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Learn from the training feature matrix and its float labels."""

    def _standardize(self, features: np.ndarray) -> np.ndarray:
        """Set ``_mean`` and ``_scale`` from *features*; return them standardized."""
        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        return (features - self._mean) / self._scale

    def _require_fitted(self) -> PairFeatureExtractor:
        if self.extractor is None:
            raise ModelNotFittedError(f"{type(self).__name__} used before fit()")
        return self.extractor

    def _standardized_features(self, batch: ColumnarPairBatch) -> np.ndarray:
        """*batch*'s feature rows in the standardized training space."""
        features = self._require_fitted().transform_columnar(batch)
        return (features - self._mean) / self._scale

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        if not pairs:
            self._require_fitted()
            return np.empty(0, dtype=np.float64)
        return self.predict_proba_columnar(pairs_batch(list(pairs)))

    @property
    def feature_names(self) -> list[str]:
        return self._require_fitted().feature_names
