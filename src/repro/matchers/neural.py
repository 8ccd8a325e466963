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

import numpy as np

from repro.core.columnar import ColumnarPairBatch
from repro.matchers.base import FeatureMatcher, batch_matmul, class_weights, sigmoid
from repro.matchers.features import PairFeatureExtractor


class MLPMatcher(FeatureMatcher):
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
        probabilities = sigmoid(logits + self._biases[-1][0])
        return probabilities, activations

    def _train(self, features: np.ndarray, labels: np.ndarray) -> None:
        standardized = self._standardize(features)
        sample_weights = class_weights(labels, self.balanced)
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

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        probabilities, _ = self._forward(self._standardized_features(batch))
        return probabilities
