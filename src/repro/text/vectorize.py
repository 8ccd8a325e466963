"""A small TF-IDF vectorizer with cosine similarity.

scikit-learn is not a dependency of this reproduction, so this is a
from-scratch implementation, exported as :class:`repro.text.TfidfVectorizer`
for callers that want bag-of-words vectors; no module of the package
uses it.

The vectorizer follows the standard smooth-idf formulation::

    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1

and L2-normalizes each document vector, so cosine similarity reduces to a
dot product of normalized sparse vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.exceptions import ModelNotFittedError

SparseVector = dict[int, float]


class TfidfVectorizer:
    """Fit a vocabulary + idf table, then map token lists to sparse vectors."""

    def __init__(self, min_df: int = 1) -> None:
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        self.min_df = min_df
        self.vocabulary_: dict[str, int] | None = None
        self.idf_: list[float] | None = None

    @property
    def is_fitted(self) -> bool:
        return self.vocabulary_ is not None

    def fit(self, documents: Iterable[Sequence[str]]) -> "TfidfVectorizer":
        """Learn the vocabulary and idf weights from tokenized documents."""
        document_frequency: Counter[str] = Counter()
        n_docs = 0
        for tokens in documents:
            n_docs += 1
            document_frequency.update(set(tokens))
        vocabulary = {
            term: index
            for index, term in enumerate(
                sorted(
                    term
                    for term, df in document_frequency.items()
                    if df >= self.min_df
                )
            )
        }
        idf = [0.0] * len(vocabulary)
        for term, index in vocabulary.items():
            idf[index] = math.log((1 + n_docs) / (1 + document_frequency[term])) + 1.0
        self.vocabulary_ = vocabulary
        self.idf_ = idf
        return self

    def transform_one(self, tokens: Sequence[str]) -> SparseVector:
        """Map one tokenized document to an L2-normalized sparse vector."""
        if self.vocabulary_ is None or self.idf_ is None:
            raise ModelNotFittedError("TfidfVectorizer.transform before fit")
        weights: SparseVector = {}
        for term, count in Counter(tokens).items():
            index = self.vocabulary_.get(term)
            if index is not None:
                weights[index] = count * self.idf_[index]
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0.0:
            weights = {index: w / norm for index, w in weights.items()}
        return weights

    def transform(self, documents: Iterable[Sequence[str]]) -> list[SparseVector]:
        """Vectorize many documents."""
        return [self.transform_one(tokens) for tokens in documents]

    def fit_transform(self, documents: Sequence[Sequence[str]]) -> list[SparseVector]:
        """Fit on *documents* and return their vectors."""
        return self.fit(documents).transform(documents)


def cosine(vector_a: SparseVector, vector_b: SparseVector) -> float:
    """Cosine similarity of two L2-normalized sparse vectors (dot product)."""
    if len(vector_b) < len(vector_a):
        vector_a, vector_b = vector_b, vector_a
    return sum(weight * vector_b.get(index, 0.0) for index, weight in vector_a.items())
