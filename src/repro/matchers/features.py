"""Per-attribute similarity features (the Magellan recipe).

For every schema attribute the extractor computes a fixed vector of
similarity measures between the left and right value.  The features of one
attribute form a contiguous *group*; the group map is what the paper's
attribute-based evaluation (Table 3) uses to read attribute-level weights
out of the Logistic Regression model.

Performance notes
-----------------
Training extracts features for every labelled pair, and perturbation
explainers call ``predict_proba`` hundreds of times per explained record.
Every entry point goes through one computation,
:meth:`PairFeatureExtractor._features`, which keeps this CPU-friendly:

* feature groups are memoized on ``(attribute, left, right)``; each call
  dedups its triples first, and perturbations of *other* attributes then
  hit the memo;
* character-level measures (Levenshtein, Jaro-Winkler) operate on a
  length-capped prefix of the value — entity-identity signal concentrates
  at the front of names/titles — so the misses of every attribute share
  one padded batch: a single call of the numpy kernels in
  :mod:`repro.text.batch_similarity`, bit-identical to the scalar measures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.text.batch_similarity import char_similarities_batch
from repro.text.normalize import normalize_value
from repro.text.similarity import (
    exact_match,
    monge_elkan_similarity,
    numeric_similarity,
)


@dataclass(frozen=True)
class FeatureConfig:
    """Extractor configuration.

    ``char_cap`` bounds the substring passed to the quadratic character
    measures.  ``use_monge_elkan`` enables the (expensive) hybrid measure —
    off by default, on in the *paper* preset for the small datasets.
    ``cache_size`` bounds the per-attribute memo table.
    """

    char_cap: int = 24
    use_monge_elkan: bool = False
    monge_elkan_token_cap: int = 8
    cache_size: int = 200_000


#: Measure names in group order (Monge-Elkan appended when enabled).
BASE_MEASURES = (
    "jaccard",
    "overlap",
    "dice",
    "levenshtein",
    "jaro_winkler",
    "numeric",
    "exact",
)


class PairFeatureExtractor:
    """Maps record pairs to numeric feature matrices, grouped by attribute."""

    def __init__(self, schema: PairSchema, config: FeatureConfig | None = None):
        self.schema = schema
        self.config = config or FeatureConfig()
        self._measures = list(BASE_MEASURES)
        if self.config.use_monge_elkan:
            self._measures.append("monge_elkan")
        self._cache: dict[tuple[str, str, str], np.ndarray] = {}
        # Raw value → normalized value memo (the same value recurs across
        # attributes, combinations, rows and batches).
        self._norm_cache: dict[str, str] = {}

    @property
    def measures(self) -> tuple[str, ...]:
        """Names of the per-attribute measures, in feature order."""
        return tuple(self._measures)

    @property
    def n_features(self) -> int:
        return len(self.schema.attributes) * len(self._measures)

    @property
    def feature_names(self) -> list[str]:
        """``<attribute>.<measure>`` for every feature, in column order."""
        return [
            f"{attribute}.{measure}"
            for attribute in self.schema.attributes
            for measure in self._measures
        ]

    def attribute_groups(self) -> dict[str, slice]:
        """Column slice of each attribute's feature group."""
        width = len(self._measures)
        return {
            attribute: slice(index * width, (index + 1) * width)
            for index, attribute in enumerate(self.schema.attributes)
        }

    def clear_cache(self) -> None:
        self._cache.clear()
        self._norm_cache.clear()

    def __getstate__(self) -> dict:
        # Memo caches are volatile accelerators, not state: excluding them
        # keeps matcher artifacts lean and — because pickle memoizes shared
        # strings — keeps :func:`repro.core.serialize.matcher_fingerprint`
        # independent of whatever was scored before saving.
        state = dict(self.__dict__)
        state["_cache"] = {}
        state["_norm_cache"] = {}
        return state

    def _features(self, triples: Sequence[tuple[str, str, str]]) -> np.ndarray:
        """Feature rows of distinct ``(attribute, left, right)`` triples.

        The extractor's one feature computation.  Memo hits are gathered
        first.  The misses normalize each distinct raw value once, and the
        quadratic character measures of every attribute's live triples run
        in **one** :func:`char_similarities_batch` call: every string is
        capped at ``char_cap``, so a single padded batch serves them all.
        The batched kernels are bit-identical to the scalar measures in
        :mod:`repro.text.similarity`, so every row — and every memo entry
        written — equals the scalar per-pair recipe bit for bit.
        """
        width = len(self._measures)
        rows = np.empty((len(triples), width), dtype=np.float64)
        cache = self._cache
        missing: list[int] = []
        for index, triple in enumerate(triples):
            cached = cache.get(triple)
            if cached is not None:
                rows[index] = cached
            else:
                missing.append(index)
        if not missing:
            return rows
        norm_cache = self._norm_cache
        normalized: dict[str, str] = {}
        token_sets: dict[str, frozenset[str]] = {}
        token_lists: dict[str, list[str]] = {}
        for index in missing:
            for value in triples[index][1:]:
                if value not in normalized:
                    norm = norm_cache.get(value)
                    if norm is None:
                        if len(norm_cache) >= self.config.cache_size:
                            norm_cache.clear()
                        norm = norm_cache[value] = normalize_value(value)
                    normalized[value] = norm
                    words = norm.split(" ") if norm else []
                    token_lists[value] = words
                    token_sets[value] = frozenset(words)

        def store(index: int, features: np.ndarray) -> None:
            rows[index] = features
            if len(cache) >= self.config.cache_size:
                cache.clear()
            cache[triples[index]] = features

        # Missing on both sides carries no match evidence.  Magellan's
        # extractor emits NaN here (imputed to 0); emitting zeros keeps
        # "nothing vs nothing" from looking like a perfect match.
        zeros = np.zeros(width, dtype=np.float64)
        live: list[int] = []
        for index in missing:
            _, left, right = triples[index]
            if normalized[left] or normalized[right]:
                live.append(index)
            else:
                store(index, zeros)
        if not live:
            return rows
        cap = self.config.char_cap
        levenshtein, jaro_winkler = char_similarities_batch(
            [normalized[triples[index][1]][:cap] for index in live],
            [normalized[triples[index][2]][:cap] for index in live],
        )
        token_cap = self.config.monge_elkan_token_cap
        other: list[tuple[float, ...]] = []
        for index in live:
            _, left, right = triples[index]
            left_norm, right_norm = normalized[left], normalized[right]
            set_left, set_right = token_sets[left], token_sets[right]
            # Inlined jaccard / overlap / dice sharing one intersection:
            # same integer cardinalities, same float expressions as the
            # scalar functions in repro.text.similarity.
            n_left, n_right = len(set_left), len(set_right)
            intersection = len(set_left & set_right)
            if not n_left and not n_right:
                jaccard = overlap = dice = 1.0
            else:
                union = n_left + n_right - intersection
                jaccard = intersection / union
                overlap = (
                    intersection / min(n_left, n_right)
                    if n_left and n_right
                    else 0.0
                )
                dice = 2.0 * intersection / (n_left + n_right)
            values = (
                jaccard,
                overlap,
                dice,
                numeric_similarity(left_norm, right_norm),
                exact_match(left_norm, right_norm),
            )
            if self.config.use_monge_elkan:
                values += (
                    monge_elkan_similarity(
                        token_lists[left][:token_cap],
                        token_lists[right][:token_cap],
                    ),
                )
            other.append(values)
        scalar = np.array(other, dtype=np.float64)
        block = np.column_stack(
            (scalar[:, :3], levenshtein, jaro_winkler, scalar[:, 3:])
        )
        if not np.isfinite(block).all():
            # A measure leaked NaN/inf (e.g. a pathological value no guard
            # anticipated).  predict_proba must stay finite for any mask.
            block = np.nan_to_num(block, nan=0.0, posinf=1.0, neginf=0.0)
        for position, index in enumerate(live):
            store(index, block[position])
        return rows

    def transform_pair(self, pair: RecordPair) -> np.ndarray:
        """Feature vector of one pair, shape ``(n_features,)``."""
        return self.transform([pair])[0]

    def transform(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Feature matrix, shape ``(len(pairs), n_features)``.

        Each pair contributes one ``(attribute, left, right)`` triple per
        attribute; a dict dedups them, :meth:`_features` computes each
        distinct triple once, and the rows are gathered back.
        """
        attributes = self.schema.attributes
        positions: dict[tuple[str, str, str], int] = {}
        codes = np.fromiter(
            (
                positions.setdefault(
                    (attribute, pair.left[attribute], pair.right[attribute]),
                    len(positions),
                )
                for pair in pairs
                for attribute in attributes
            ),
            dtype=np.intp,
            count=len(pairs) * len(attributes),
        )
        block = self._features(list(positions))
        return block[codes].reshape(len(pairs), self.n_features)

    def transform_columnar(self, batch) -> np.ndarray:
        """Feature matrix of a :class:`~repro.core.columnar.ColumnarPairBatch`.

        Per attribute, the distinct (left, right) value combinations are
        found by uniquing the batch's integer index codes — never by
        touching the strings row-wise.  All attributes' distinct triples go
        through :meth:`_features` together (the same memo, the same single
        kernel call as :meth:`transform`) and are gathered back onto the
        full row set, so row *i* of the result is bit-identical to
        ``transform_pair`` of row *i*'s materialized pair.
        """
        attributes = self.schema.attributes
        if batch.schema.attributes != attributes:
            raise ValueError(
                f"batch schema {batch.schema.attributes} does not match "
                f"extractor schema {attributes}"
            )
        codes = np.empty((batch.n_rows, len(attributes)), dtype=np.intp)
        triples: list[tuple[str, str, str]] = []
        for position, attribute in enumerate(attributes):
            left = batch.columns[("left", attribute)]
            right = batch.columns[("right", attribute)]
            _, first, inverse = np.unique(
                left.index * len(right.values) + right.index,
                return_index=True,
                return_inverse=True,
            )
            codes[:, position] = inverse.reshape(-1) + len(triples)
            triples.extend(
                (
                    attribute,
                    left.values[left.index[representative]],
                    right.values[right.index[representative]],
                )
                for representative in first
            )
        block = self._features(triples)
        return block[codes].reshape(batch.n_rows, self.n_features)
