"""Per-attribute similarity features (the Magellan recipe).

For every schema attribute the extractor computes a fixed vector of
similarity measures between the left and right value.  The features of one
attribute form a contiguous *group*; the group map is what the paper's
attribute-based evaluation (Table 3) uses to read attribute-level weights
out of the Logistic Regression model.

Performance notes
-----------------
Training extracts features for every labelled pair, and perturbation
explainers score hundreds of perturbed pairs per explained record.
:meth:`PairFeatureExtractor.transform_columnar` is the one entry point
that computes features; :meth:`~PairFeatureExtractor.transform` wraps a
pair list as a columnar batch and calls it.  The computation keeps this
CPU-friendly:

* each attribute's distinct ``(left, right)`` value combinations are
  found from the batch's integer index codes, and feature groups are
  memoized on ``(attribute, left, right)``, so perturbations of *other*
  attributes hit the memo;
* the misses are computed as one vectorized pass: each distinct raw value
  is normalized, tokenized and parsed as a number once, and the token-set,
  numeric and exact-match measures are numpy arithmetic over the miss rows;
* character-level measures (Levenshtein, Jaro-Winkler) operate on a
  :data:`CHAR_CAP`-long prefix of the value — entity-identity signal
  concentrates at the front of names/titles — and the misses of every
  attribute go through a single call of the numpy kernels in
  :mod:`repro.text.batch_similarity`, which bucket rows by width and run
  the edit-distance DP on narrow integer dtypes.

Every column is bit-identical to the scalar measures of
:mod:`repro.text.similarity`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.columnar import ColumnarPairBatch, pairs_batch
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.text.batch_similarity import char_similarities_batch
from repro.text.normalize import normalize_value

#: Length of the normalized-value prefix the quadratic character measures see.
CHAR_CAP = 24

#: Entries of each memo table (feature groups, normalized values); a table
#: is cleared before a write that would overflow it.
CACHE_SIZE = 200_000

#: Measure names in group order.
BASE_MEASURES = (
    "jaccard",
    "overlap",
    "dice",
    "levenshtein",
    "jaro_winkler",
    "numeric",
    "exact",
)


def _parse_number(text: str) -> float:
    """``float(text)`` when that is a finite number, else NaN."""
    if text[:1].isalpha():
        # No finite float starts with a letter ("inf" and "nan" do, but
        # are not finite): skip the exception path for ordinary words.
        return math.nan
    try:
        number = float(text)
    except ValueError:
        return math.nan
    return number if math.isfinite(number) else math.nan


def _token_set_similarities(
    n_left: np.ndarray, n_right: np.ndarray, common: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jaccard, overlap and Dice from set sizes and intersection sizes.

    Same integer cardinalities and float expressions as the scalar
    functions in :mod:`repro.text.similarity`; the guarded denominators
    only differ where the result is a constant.
    """
    total = n_left + n_right
    union = total - common
    smaller = np.minimum(n_left, n_right)
    jaccard = np.where(union > 0, common / np.maximum(union, 1), 1.0)
    overlap = np.where(
        smaller > 0,
        common / np.maximum(smaller, 1),
        np.where(total > 0, 0.0, 1.0),
    )
    dice = np.where(total > 0, 2.0 * common / np.maximum(total, 1), 1.0)
    return jaccard, overlap, dice


def _numeric_similarity(
    left: np.ndarray, right: np.ndarray, both_empty: np.ndarray
) -> np.ndarray:
    """:func:`~repro.text.similarity.numeric_similarity` over parsed columns.

    ``left``/``right`` hold :func:`_parse_number` of each side, NaN where
    the scalar measure would return 0.0 for want of a finite number.
    """
    out = np.zeros(len(left), dtype=np.float64)
    valid = ~np.isnan(left) & ~np.isnan(right)
    x, y = left[valid], right[valid]
    # Equal values (0 and -0 included) short-circuit to 1.0 first, so the
    # denominator is never zero where the ratio is kept.
    with np.errstate(all="ignore"):  # overflow → inf, as in Python floats
        ratio = 1.0 - np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    out[valid] = np.where(x == y, 1.0, np.maximum(0.0, ratio))
    out[both_empty] = 1.0
    return out


class PairFeatureExtractor:
    """Maps record pairs to numeric feature matrices, grouped by attribute."""

    def __init__(self, schema: PairSchema):
        self.schema = schema
        self._cache: dict[tuple[str, str, str], np.ndarray] = {}
        # Raw value → normalized value memo (the same value recurs across
        # attributes, combinations, rows and batches).
        self._norm_cache: dict[str, str] = {}

    @property
    def n_features(self) -> int:
        return len(self.schema.attributes) * len(BASE_MEASURES)

    @property
    def feature_names(self) -> list[str]:
        """``<attribute>.<measure>`` for every feature, in column order."""
        return [
            f"{attribute}.{measure}"
            for attribute in self.schema.attributes
            for measure in BASE_MEASURES
        ]

    def attribute_groups(self) -> dict[str, slice]:
        """Column slice of each attribute's feature group."""
        width = len(BASE_MEASURES)
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

        Called by :meth:`transform_columnar` only.  Memo hits are gathered
        first.  For the misses, each distinct raw value is parsed once
        (normalized string, token set, number) and every measure runs as
        one vectorized pass over all miss rows: the token-set and numeric
        measures as numpy arithmetic on per-value cardinalities and
        numbers, the quadratic character measures of every attribute in
        **one** :func:`char_similarities_batch` call, which buckets the
        :data:`CHAR_CAP`-capped strings by width.  Each column uses the float
        expressions of its scalar measure in :mod:`repro.text.similarity`,
        so every row — and every memo entry written — equals the scalar
        per-pair recipe bit for bit.
        """
        rows = np.empty((len(triples), len(BASE_MEASURES)), dtype=np.float64)
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
        misses = [triples[index] for index in missing]
        # One slot per distinct raw value, left sides first, then right.
        slot_of: dict[str, int] = {}
        slots = np.fromiter(
            (
                slot_of.setdefault(triple[side], len(slot_of))
                for side in (1, 2)
                for triple in misses
            ),
            dtype=np.intp,
            count=2 * len(misses),
        )
        norm_cache = self._norm_cache
        norms: list[str] = []
        for value in slot_of:
            norm = norm_cache.get(value)
            if norm is None:
                if len(norm_cache) >= CACHE_SIZE:
                    norm_cache.clear()
                norm = norm_cache[value] = normalize_value(value)
            norms.append(norm)
        token_sets = [frozenset(norm.split()) for norm in norms]
        sizes = np.fromiter(map(len, token_sets), dtype=np.int64, count=len(norms))
        numbers = np.fromiter(
            map(_parse_number, norms), dtype=np.float64, count=len(norms)
        )
        left, right = slots[: len(misses)], slots[len(misses) :]
        pairs = list(zip(left.tolist(), right.tolist()))
        common = np.fromiter(
            (len(token_sets[a] & token_sets[b]) for a, b in pairs),
            dtype=np.int64,
            count=len(pairs),
        )
        exact = np.fromiter(
            (norms[a] == norms[b] for a, b in pairs),
            dtype=np.float64,
            count=len(pairs),
        )
        capped = [norm[:CHAR_CAP] for norm in norms]
        levenshtein, jaro_winkler = char_similarities_batch(
            [capped[a] for a, _ in pairs], [capped[b] for _, b in pairs]
        )
        # A normalized value has no empty tokens: no tokens ⇔ empty value.
        both_empty = (sizes[left] == 0) & (sizes[right] == 0)
        columns = [
            *_token_set_similarities(sizes[left], sizes[right], common),
            levenshtein,
            jaro_winkler,
            _numeric_similarity(numbers[left], numbers[right], both_empty),
            exact,
        ]
        block = np.column_stack(columns)
        # Missing on both sides carries no match evidence.  Magellan's
        # extractor emits NaN here (imputed to 0); emitting zeros keeps
        # "nothing vs nothing" from looking like a perfect match.
        block[both_empty] = 0.0
        if not np.isfinite(block).all():
            # A measure leaked NaN/inf (e.g. a pathological value no guard
            # anticipated).  predict_proba must stay finite for any mask.
            block = np.nan_to_num(block, nan=0.0, posinf=1.0, neginf=0.0)
        rows[missing] = block
        if len(cache) + len(misses) > CACHE_SIZE:
            cache.clear()
        cache.update(zip(misses, block))
        return rows

    def transform_pair(self, pair: RecordPair) -> np.ndarray:
        """Feature vector of one pair, shape ``(n_features,)``."""
        return self.transform([pair])[0]

    def transform(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Feature matrix, shape ``(len(pairs), n_features)``.

        The pairs go through :meth:`transform_columnar` as one batch.
        """
        if not pairs:
            return np.empty((0, self.n_features), dtype=np.float64)
        return self.transform_columnar(pairs_batch(list(pairs)))

    def transform_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        """Feature matrix of a :class:`~repro.core.columnar.ColumnarPairBatch`.

        Per attribute, the distinct (left, right) value combinations are
        found by uniquing the batch's integer index codes — never by
        touching the strings row-wise.  All attributes' distinct triples go
        through :meth:`_features` together (one memo lookup, one kernel
        call) and are gathered back onto the full row set, so row *i*
        depends only on row *i*'s values, whatever batch carries it.
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
