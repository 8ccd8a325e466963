"""A token-embedding matcher — the DeepMatcher-style "deep" stand-in.

The similarity-feature matchers (:class:`LogisticRegressionMatcher`,
:class:`MLPMatcher`) see only aggregate per-attribute similarities; they
cannot value *individual* tokens.  The deep matchers the paper motivates
(DeepMatcher, DITTO) embed tokens, summarize attributes and compare the
two sides in embedding space — which is why token-level explanations of
them are interesting in the first place.

:class:`EmbeddingMatcher` reproduces that architecture on numpy + scipy:

* a vocabulary + trainable embedding table (Xavier init, OOV bucket);
* per attribute and side, the entity summary is the *mean embedding* of
  its tokens (DeepMatcher's aggregate variant);
* the pair representation concatenates, per attribute,
  ``[|left − right|, left ⊙ right]``;
* a one-hidden-layer tanh classifier produces the match probability;
* everything — classifier *and embeddings* — trains end-to-end with Adam
  on the class-balanced cross-entropy.

Mean-pooling is expressed as a sparse averaging matrix (rows = (pair,
attribute, side) slots, columns = vocabulary), so a whole batch embeds in
two sparse matmuls and the embedding gradient is one transposed matmul.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.base import EntityMatcher, batch_matmul
from repro.matchers.logistic import _sigmoid
from repro.text.normalize import tokens_of

if TYPE_CHECKING:
    from scipy import sparse

#: Vocabulary index reserved for unseen tokens.
OOV_INDEX = 0


class EmbeddingMatcher(EntityMatcher):
    """End-to-end trained mean-embedding matcher."""

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden_size: int = 32,
        epochs: int = 120,
        learning_rate: float = 0.01,
        l2: float = 1e-5,
        min_token_count: int = 1,
        balanced: bool = True,
        seed: int = 0,
    ) -> None:
        if embedding_dim < 1 or hidden_size < 1:
            raise ValueError("embedding_dim and hidden_size must be >= 1")
        self.embedding_dim = embedding_dim
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.min_token_count = min_token_count
        self.balanced = balanced
        self.seed = seed
        self.vocabulary_: dict[str, int] | None = None
        self.attributes_: tuple[str, ...] = ()
        self.embeddings_: np.ndarray | None = None
        self._w_hidden: np.ndarray | None = None
        self._b_hidden: np.ndarray | None = None
        self._w_out: np.ndarray | None = None
        self._b_out: float = 0.0
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _build_vocabulary(self, dataset: EMDataset) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair in dataset:
            for entity in (pair.left, pair.right):
                for value in entity.values():
                    for token in tokens_of(value):
                        counts[token] = counts.get(token, 0) + 1
        vocabulary = {"<oov>": OOV_INDEX}
        for token in sorted(counts):
            if counts[token] >= self.min_token_count:
                vocabulary[token] = len(vocabulary)
        return vocabulary

    def _averaging_matrix(self, pairs: Sequence[RecordPair]) -> sparse.csr_matrix:
        """Sparse (n_pairs · n_attributes · 2) × vocab mean-pooling matrix.

        Slot order: pair-major, then attribute, then side (left, right).
        Empty values produce an all-zero row (a zero summary vector).
        """
        assert self.vocabulary_ is not None
        rows: list[int] = []
        columns: list[int] = []
        values: list[float] = []
        slot = 0
        for pair in pairs:
            for attribute in self.attributes_:
                for entity in (pair.left, pair.right):
                    tokens = tokens_of(entity[attribute])
                    if tokens:
                        share = 1.0 / len(tokens)
                        for token in tokens:
                            rows.append(slot)
                            columns.append(
                                self.vocabulary_.get(token, OOV_INDEX)
                            )
                            values.append(share)
                    slot += 1
        from scipy import sparse

        n_slots = len(pairs) * len(self.attributes_) * 2
        return sparse.csr_matrix(
            (values, (rows, columns)),
            shape=(n_slots, len(self.vocabulary_)),
        )

    def _pair_features(
        self, pooling: sparse.csr_matrix, n_pairs: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, left summaries, right summaries) for a batch."""
        assert self.embeddings_ is not None
        summaries = pooling @ self.embeddings_  # (slots, d)
        per_pair = summaries.reshape(n_pairs, len(self.attributes_), 2, -1)
        left = per_pair[:, :, 0, :]
        right = per_pair[:, :, 1, :]
        absdiff = np.abs(left - right)
        product = left * right
        features = np.concatenate([absdiff, product], axis=2).reshape(n_pairs, -1)
        return features, left, right

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, dataset: EMDataset) -> "EmbeddingMatcher":
        if len(dataset) < 2:
            raise DatasetError("need at least 2 pairs to fit")
        labels = dataset.labels.astype(np.float64)
        if labels.min() == labels.max():
            raise DatasetError("training data contains a single class")
        self.attributes_ = dataset.schema.attributes
        self.vocabulary_ = self._build_vocabulary(dataset)
        rng = np.random.default_rng(self.seed)

        vocab_size = len(self.vocabulary_)
        d = self.embedding_dim
        feature_size = len(self.attributes_) * 2 * d
        scale = np.sqrt(6.0 / (vocab_size + d))
        self.embeddings_ = rng.uniform(-scale, scale, size=(vocab_size, d))
        limit = np.sqrt(6.0 / (feature_size + self.hidden_size))
        self._w_hidden = rng.uniform(-limit, limit, size=(feature_size, self.hidden_size))
        self._b_hidden = np.zeros(self.hidden_size)
        limit = np.sqrt(6.0 / (self.hidden_size + 1))
        self._w_out = rng.uniform(-limit, limit, size=self.hidden_size)
        self._b_out = 0.0

        sample_weights = np.ones(len(labels))
        if self.balanced:
            n_match = labels.sum()
            n_non_match = len(labels) - n_match
            sample_weights[labels == 1] = len(labels) / (2.0 * n_match)
            sample_weights[labels == 0] = len(labels) / (2.0 * n_non_match)
        sample_weights = sample_weights / sample_weights.sum()

        pooling = self._averaging_matrix(dataset.pairs)
        pooling_t = pooling.T.tocsr()
        n_pairs = len(dataset)
        n_attrs = len(self.attributes_)

        # Adam state for (embeddings, w_hidden, b_hidden, w_out, b_out).
        params = ["embeddings_", "_w_hidden", "_b_hidden", "_w_out"]
        moment1 = {name: np.zeros_like(getattr(self, name)) for name in params}
        moment2 = {name: np.zeros_like(getattr(self, name)) for name in params}
        m_b_out = 0.0
        v_b_out = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        self.loss_history_ = []
        for epoch in range(1, self.epochs + 1):
            features, left, right = self._pair_features(pooling, n_pairs)
            hidden = np.tanh(features @ self._w_hidden + self._b_hidden)
            logits = hidden @ self._w_out + self._b_out
            probabilities = _sigmoid(logits)
            clipped = np.clip(probabilities, 1e-12, 1 - 1e-12)
            loss = -np.sum(
                sample_weights
                * (labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
            )
            self.loss_history_.append(float(loss))

            delta_logit = sample_weights * (probabilities - labels)  # (n,)
            grad_w_out = hidden.T @ delta_logit + self.l2 * self._w_out
            grad_b_out = float(delta_logit.sum())
            delta_hidden = np.outer(delta_logit, self._w_out) * (1.0 - hidden**2)
            grad_w_hidden = features.T @ delta_hidden + self.l2 * self._w_hidden
            grad_b_hidden = delta_hidden.sum(axis=0)
            grad_features = delta_hidden @ self._w_hidden.T  # (n, feature_size)

            grad_per_attr = grad_features.reshape(n_pairs, n_attrs, 2, d)
            grad_absdiff = grad_per_attr[:, :, 0, :]
            grad_product = grad_per_attr[:, :, 1, :]
            sign = np.sign(left - right)
            grad_left = grad_absdiff * sign + grad_product * right
            grad_right = -grad_absdiff * sign + grad_product * left
            grad_slots = np.empty((n_pairs, n_attrs, 2, d))
            grad_slots[:, :, 0, :] = grad_left
            grad_slots[:, :, 1, :] = grad_right
            grad_embeddings = pooling_t @ grad_slots.reshape(-1, d)
            grad_embeddings += self.l2 * self.embeddings_

            gradients = {
                "embeddings_": grad_embeddings,
                "_w_hidden": grad_w_hidden,
                "_b_hidden": grad_b_hidden,
                "_w_out": grad_w_out,
            }
            correction1 = 1.0 - beta1**epoch
            correction2 = 1.0 - beta2**epoch
            for name in params:
                moment1[name] = beta1 * moment1[name] + (1 - beta1) * gradients[name]
                moment2[name] = beta2 * moment2[name] + (1 - beta2) * gradients[name] ** 2
                update = (moment1[name] / correction1) / (
                    np.sqrt(moment2[name] / correction2) + eps
                )
                setattr(self, name, getattr(self, name) - self.learning_rate * update)
            m_b_out = beta1 * m_b_out + (1 - beta1) * grad_b_out
            v_b_out = beta2 * v_b_out + (1 - beta2) * grad_b_out**2
            self._b_out -= self.learning_rate * (m_b_out / correction1) / (
                np.sqrt(v_b_out / correction2) + eps
            )
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        if self.vocabulary_ is None or self.embeddings_ is None:
            raise ModelNotFittedError("EmbeddingMatcher used before fit()")
        if not pairs:
            return np.empty(0, dtype=np.float64)
        pooling = self._averaging_matrix(pairs)
        features, _, _ = self._pair_features(pooling, len(pairs))
        hidden = np.tanh(batch_matmul(features, self._w_hidden) + self._b_hidden)
        # Row-wise output reduction: batch-shape-independent scoring (the
        # prediction engine's equivalence bar).
        return _sigmoid((hidden * self._w_out).sum(axis=1) + self._b_out)

    @property
    def vocabulary_size(self) -> int:
        if self.vocabulary_ is None:
            raise ModelNotFittedError("EmbeddingMatcher used before fit()")
        return len(self.vocabulary_)

    # ------------------------------------------------------------------
    # White-box introspection
    # ------------------------------------------------------------------

    def token_saliency(self, pair: RecordPair) -> dict[tuple[str, str, int], float]:
        """Exact gradient attribution of every token toward the match logit.

        Because the model is differentiable end-to-end, each token's
        contribution can be computed in closed form: the gradient of the
        output logit with respect to the token's attribute-summary slot,
        dotted with the token's embedding and scaled by the mean-pooling
        share ``1/n_tokens``.  Keys are ``(side, attribute, position)`` —
        the same addressing the explainers use — so black-box explanations
        can be validated against the model's true internals (the
        ``bench_whitebox_agreement`` ablation scores Landmark against it).
        """
        if self.vocabulary_ is None or self.embeddings_ is None:
            raise ModelNotFittedError("EmbeddingMatcher used before fit()")
        pooling = self._averaging_matrix([pair])
        features, left, right = self._pair_features(pooling, 1)
        hidden = np.tanh(features @ self._w_hidden + self._b_hidden)

        # Backward pass for the logit (not the loss).
        delta_hidden = self._w_out * (1.0 - hidden[0] ** 2)  # (hidden,)
        grad_features = self._w_hidden @ delta_hidden  # (feature_size,)
        n_attrs = len(self.attributes_)
        d = self.embedding_dim
        grad_per_attr = grad_features.reshape(n_attrs, 2, d)
        sign = np.sign(left[0] - right[0])  # (n_attrs, d)
        grad_left = grad_per_attr[:, 0, :] * sign + grad_per_attr[:, 1, :] * right[0]
        grad_right = -grad_per_attr[:, 0, :] * sign + grad_per_attr[:, 1, :] * left[0]

        saliency: dict[tuple[str, str, int], float] = {}
        for attr_index, attribute in enumerate(self.attributes_):
            for side, grad_summary in (("left", grad_left), ("right", grad_right)):
                tokens = tokens_of(pair.entity(side)[attribute])
                if not tokens:
                    continue
                share = 1.0 / len(tokens)
                for position, token in enumerate(tokens):
                    embedding = self.embeddings_[
                        self.vocabulary_.get(token, OOV_INDEX)
                    ]
                    saliency[(side, attribute, position)] = float(
                        share * grad_summary[attr_index] @ embedding
                    )
        return saliency
