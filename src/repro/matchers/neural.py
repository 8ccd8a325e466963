"""A small numpy MLP matcher — the "deep model" stand-in.

The paper's qualitative claims (model-agnosticism of Landmark Explanation)
involve deep matchers like DeepMatcher; its quantitative tables use Logistic
Regression.  PyTorch is not available offline, so this module provides a
from-scratch multi-layer perceptron over the same similarity features: one
or two hidden tanh layers trained with Adam on the weighted cross-entropy.

From the explainer's point of view it is just another black box with a
``predict_proba``, which is the point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.columnar import ColumnarPairBatch, pairs_batch
from repro.data.records import EMDataset, RecordPair
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.base import EntityMatcher, batch_matmul
from repro.matchers.features import PairFeatureExtractor
from repro.matchers.logistic import _sigmoid


class MLPMatcher(EntityMatcher):
    """Feed-forward network: features → hidden tanh layers → sigmoid."""

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (32, 16),
        epochs: int = 300,
        learning_rate: float = 0.01,
        l2: float = 1e-4,
        balanced: bool = True,
        seed: int = 0,
    ) -> None:
        if not hidden_sizes:
            raise ValueError("hidden_sizes must contain at least one layer")
        self.hidden_sizes = hidden_sizes
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.balanced = balanced
        self.seed = seed
        self.extractor: PairFeatureExtractor | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------

    def _forward(self, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (output probabilities, per-layer activations incl. input)."""
        activations = [features]
        hidden = features
        for layer_index in range(len(self.hidden_sizes)):
            hidden = np.tanh(
                batch_matmul(hidden, self._weights[layer_index])
                + self._biases[layer_index]
            )
            activations.append(hidden)
        # Row-wise output reduction keeps each row's score independent of
        # the batch shape (see the prediction engine's equivalence bar).
        logits = (hidden * self._weights[-1][:, 0]).sum(axis=1)
        probabilities = _sigmoid(logits + self._biases[-1][0])
        return probabilities, activations

    def fit(self, dataset: EMDataset) -> "MLPMatcher":
        if len(dataset) < 2:
            raise DatasetError("need at least 2 pairs to fit")
        labels = dataset.labels.astype(np.float64)
        if labels.min() == labels.max():
            raise DatasetError("training data contains a single class")
        self.extractor = PairFeatureExtractor(dataset.schema)
        features = self.extractor.transform(dataset.pairs)
        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        standardized = (features - self._mean) / self._scale

        sample_weights = np.ones(len(labels))
        if self.balanced:
            n_match = labels.sum()
            n_non_match = len(labels) - n_match
            sample_weights[labels == 1] = len(labels) / (2.0 * n_match)
            sample_weights[labels == 0] = len(labels) / (2.0 * n_non_match)
        sample_weights = sample_weights / sample_weights.sum()

        rng = np.random.default_rng(self.seed)
        sizes = [standardized.shape[1], *self.hidden_sizes, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

        # Adam state
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        self.loss_history_ = []
        for epoch in range(1, self.epochs + 1):
            probabilities, activations = self._forward(standardized)
            clipped = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
            loss = -np.sum(
                sample_weights
                * (labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
            )
            self.loss_history_.append(float(loss))

            # Backprop.  delta has shape (n, fan_out of current layer).
            delta = (sample_weights * (probabilities - labels))[:, None]
            grads_w: list[np.ndarray] = [np.empty(0)] * len(self._weights)
            grads_b: list[np.ndarray] = [np.empty(0)] * len(self._biases)
            for layer_index in range(len(self._weights) - 1, -1, -1):
                grads_w[layer_index] = (
                    activations[layer_index].T @ delta + self.l2 * self._weights[layer_index]
                )
                grads_b[layer_index] = delta.sum(axis=0)
                if layer_index > 0:
                    upstream = delta @ self._weights[layer_index].T
                    delta = upstream * (1.0 - activations[layer_index] ** 2)

            correction1 = 1.0 - beta1 ** epoch
            correction2 = 1.0 - beta2 ** epoch
            for layer_index in range(len(self._weights)):
                m_w[layer_index] = beta1 * m_w[layer_index] + (1 - beta1) * grads_w[layer_index]
                v_w[layer_index] = beta2 * v_w[layer_index] + (1 - beta2) * grads_w[layer_index] ** 2
                m_b[layer_index] = beta1 * m_b[layer_index] + (1 - beta1) * grads_b[layer_index]
                v_b[layer_index] = beta2 * v_b[layer_index] + (1 - beta2) * grads_b[layer_index] ** 2
                self._weights[layer_index] -= self.learning_rate * (
                    m_w[layer_index] / correction1
                ) / (np.sqrt(v_w[layer_index] / correction2) + eps)
                self._biases[layer_index] -= self.learning_rate * (
                    m_b[layer_index] / correction1
                ) / (np.sqrt(v_b[layer_index] / correction2) + eps)
        return self

    def _require_fitted(self) -> PairFeatureExtractor:
        if self.extractor is None or not self._weights:
            raise ModelNotFittedError("MLPMatcher used before fit()")
        return self.extractor

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        if not pairs:
            self._require_fitted()
            return np.empty(0, dtype=np.float64)
        return self.predict_proba_columnar(pairs_batch(list(pairs)))

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        extractor = self._require_fitted()
        if batch.n_rows == 0:
            return np.empty(0, dtype=np.float64)
        features = extractor.transform_columnar(batch)
        standardized = (features - self._mean) / self._scale
        probabilities, _ = self._forward(standardized)
        return probabilities
