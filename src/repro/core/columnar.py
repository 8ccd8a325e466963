"""Columnar perturbation batches: masks → values as arrays, not objects.

The hot path of every perturbation explainer used to be a Python loop:
each of the ~256 mask rows became a rebuilt :class:`~repro.data.records.
RecordPair` (regroup the kept tokens, conform, frozen-mapping validation)
before the matcher saw it.  A :class:`ColumnarPairBatch` replaces that
loop with a columnar representation: for every *(side, attribute)* cell
it stores the small list of **candidate values** the perturbation can
produce plus one integer index per mask row.  Applying a mask matrix then
costs one numpy unique per attribute instead of ``n_samples`` object
rebuilds, and feature extraction downstream runs once per *distinct*
(left, right) value combination and gathers.

Bit-identity contract
---------------------
A columnar batch is a pure re-encoding: row *i*'s values are exactly the
strings the per-pair path would have rebuilt (same token order, same
``" ".join``, same empty-attribute conform), so cache keys and — for
row-independent matchers — probabilities are bit-identical whichever
representation carries them.

A batch is the only payload a scoring call carries: a caller holding
pairs wraps them with :func:`pairs_batch` first.  The builders are the
only code that rebuilds a pair from kept tokens; a caller that needs one
rebuilt pair takes a row of a batch.  They cover the perturbation
families and the evaluations' token removals:

* :func:`pairs_batch` — a same-schema list of pairs, one row each;
* :func:`landmark_batch` — Landmark Explanation masks over the varying
  entity's tokens (landmark side constant);
* :func:`mojito_drop_batch` — token drops over both sides at once, and
  :func:`removal_batch` over it — token-key removals (Table 2's
  ``p_new``, faithfulness curves, Mojito interest);
* :func:`mojito_attr_drop_batch` / :func:`mojito_copy_batch` — Mojito's
  attribute-granular empty / copy substitutions (two candidates per cell).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.data.records import RecordPair
from repro.text.tokenize import PrefixedToken, Tokenizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generation import GeneratedInstance

_SIDES = ("left", "right")

#: Submasks wider than this are uniqued row-wise (``np.unique(axis=0)``)
#: instead of through packed 64-bit codes.
_PACK_LIMIT = 62


@dataclass
class ValueColumn:
    """One *(side, attribute)* cell of a batch: candidate values + rows.

    ``values[index[i]]`` is the cell's value in mask row *i*.  Constant
    cells hold a single candidate and an all-zero index.
    """

    values: list[str]
    index: np.ndarray

    @classmethod
    def constant(cls, value: str, n_rows: int) -> "ValueColumn":
        return cls([value], np.zeros(n_rows, dtype=np.intp))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    def take(self, rows: np.ndarray) -> "ValueColumn":
        return ValueColumn(self.values, self.index[rows])

    def row_values(self) -> np.ndarray:
        """Per-row values as an object array (for fingerprinting)."""
        return np.asarray(self.values, dtype=object)[self.index]


class ColumnarPairBatch:
    """A batch of perturbed record pairs in columnar form.

    *template* is the unperturbed pair every row derives from; *columns*
    maps every ``(side, attribute)`` of the template's schema to a
    :class:`ValueColumn` whose index array has ``n_rows`` entries.
    """

    def __init__(
        self,
        template: RecordPair,
        columns: dict[tuple[str, str], ValueColumn],
        n_rows: int,
    ) -> None:
        self.template = template
        self.columns = columns
        self.n_rows = n_rows

    def __len__(self) -> int:
        return self.n_rows

    @property
    def schema(self):
        return self.template.schema

    # ------------------------------------------------------------------

    def side_columns(self, side: str) -> list[ValueColumn]:
        return [
            self.columns[(side, attribute)]
            for attribute in self.schema.attributes
        ]

    def value_rows(self, side: str) -> list[tuple[str, ...]]:
        """Per-row value tuples of one side, in schema attribute order.

        These are exactly the value tuples of the pairs :meth:`pairs`
        materializes, so they slot straight into the engine's cache keys.
        """
        cols = self.side_columns(side)
        if all(col.is_constant for col in cols):
            constant = tuple(col.values[0] for col in cols)
            return [constant] * self.n_rows
        arrays = [col.row_values() for col in cols]
        return list(zip(*arrays))

    def take(self, rows: Sequence[int] | np.ndarray) -> "ColumnarPairBatch":
        """The sub-batch of the given row indices (values are shared)."""
        rows = np.asarray(rows, dtype=np.intp)
        return ColumnarPairBatch(
            self.template,
            {key: col.take(rows) for key, col in self.columns.items()},
            len(rows),
        )

    def slice_rows(self, start: int, stop: int) -> "ColumnarPairBatch":
        """The contiguous sub-batch ``[start:stop)`` (chunking helper)."""
        return ColumnarPairBatch(
            self.template,
            {
                key: ValueColumn(col.values, col.index[start:stop])
                for key, col in self.columns.items()
            },
            max(0, min(stop, self.n_rows) - start),
        )

    def pairs(self) -> list[RecordPair]:
        """Materialize one :class:`RecordPair` per row.

        Used by matchers without a native columnar kernel (the default
        ``EntityMatcher.predict_proba_columnar``) and by callers that need
        the rebuilt pairs themselves; every row keeps the template's
        label and pair id.
        """
        attributes = self.schema.attributes
        template = self.template
        template_left = tuple(template.left[a] for a in attributes)
        template_right = tuple(template.right[a] for a in attributes)
        left_rows = self.value_rows("left")
        right_rows = self.value_rows("right")
        out: list[RecordPair] = []
        for left, right in zip(left_rows, right_rows):
            pair = template
            if left != template_left:
                pair = pair.with_left(dict(zip(attributes, left)))
            if right != template_right:
                pair = pair.with_right(dict(zip(attributes, right)))
            out.append(pair)
        return out


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def pairs_batch(pairs: Sequence[RecordPair]) -> ColumnarPairBatch:
    """A batch whose row *i* carries the attribute values of ``pairs[i]``.

    The pairs must share their schema's attributes.  The first pair is
    the template, so materialized rows keep its label and pair id: a
    matcher sees only attribute values.
    """
    if not pairs:
        raise ValueError("pairs_batch needs at least one pair")
    template = pairs[0]
    attributes = template.schema.attributes
    for pair in pairs:
        if pair.schema.attributes != attributes:
            raise ValueError(
                f"pairs_batch needs one schema; got {attributes} and "
                f"{pair.schema.attributes}"
            )
    columns: dict[tuple[str, str], ValueColumn] = {}
    for side in _SIDES:
        entities = list(map(operator.attrgetter(side), pairs))
        for attribute in attributes:
            column = list(map(operator.itemgetter(attribute), entities))
            values = list(dict.fromkeys(column))
            slots = dict(zip(values, range(len(values))))
            index = np.fromiter(
                map(slots.__getitem__, column), dtype=np.intp, count=len(column)
            )
            columns[(side, attribute)] = ValueColumn(values, index)
    return ColumnarPairBatch(template, columns, len(pairs))


def _masked_value_column(
    words: list[str],
    positions: list[int],
    submask: np.ndarray,
) -> ValueColumn:
    """The column of one attribute under a (n_rows, k) keep-submask.

    A value keeps its words in token-position order (a stable sort by
    position), joined by single spaces.  Unique
    submask rows are found once; every mask row indexes its unique.
    """
    n_rows, k = submask.shape
    if k == 0:
        return ValueColumn.constant("", n_rows)
    order = sorted(range(k), key=lambda j: positions[j])
    ordered_words = [words[j] for j in order]
    sub = submask[:, order] != 0
    if k <= _PACK_LIMIT:
        weights = np.uint64(1) << np.arange(k, dtype=np.uint64)
        codes = sub.astype(np.uint64) @ weights
        _, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
    else:
        _, first, inverse = np.unique(
            sub, axis=0, return_index=True, return_inverse=True
        )
    values = [
        " ".join(
            word for word, bit in zip(ordered_words, sub[row_index]) if bit
        )
        for row_index in first
    ]
    return ValueColumn(values, inverse.astype(np.intp, copy=False))


def landmark_batch(
    instance: "GeneratedInstance", masks: np.ndarray
) -> ColumnarPairBatch:
    """Columnar form of Landmark masks over one generated instance.

    Row *i* is the pair of ``masks[i]``: the varying side rebuilt from its
    kept tokens (attributes left without a token become empty), the
    landmark side untouched.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != len(instance.tokens):
        raise ValueError(
            f"mask width {masks.shape[1] if masks.ndim == 2 else masks.shape}"
            f" != token count {len(instance.tokens)}"
        )
    n_rows = masks.shape[0]
    schema = instance.pair.schema
    varying_side = instance.varying_side
    landmark_side = "right" if varying_side == "left" else "left"
    landmark_entity = instance.landmark_entity

    by_attribute: dict[str, list[int]] = {a: [] for a in schema.attributes}
    for column, token in enumerate(instance.tokens):
        by_attribute[token.attribute].append(column)

    columns: dict[tuple[str, str], ValueColumn] = {}
    for attribute in schema.attributes:
        token_columns = by_attribute[attribute]
        words = [instance.tokens[c].word for c in token_columns]
        positions = [instance.tokens[c].position for c in token_columns]
        columns[(varying_side, attribute)] = _masked_value_column(
            words, positions, masks[:, token_columns]
        )
        columns[(landmark_side, attribute)] = ValueColumn.constant(
            landmark_entity[attribute], n_rows
        )
    return ColumnarPairBatch(instance.pair, columns, n_rows)


def mojito_drop_batch(
    pair: RecordPair,
    tokens: list[tuple[str, PrefixedToken]],
    masks: np.ndarray,
) -> ColumnarPairBatch:
    """Columnar form of Mojito Drop masks (tokens of both sides at once).

    Both sides are rebuilt from their kept tokens — attributes that
    tokenize to nothing become empty on every row.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != len(tokens):
        raise ValueError(
            f"mask width {masks.shape[1] if masks.ndim == 2 else masks.shape}"
            f" != token count {len(tokens)}"
        )
    n_rows = masks.shape[0]
    schema = pair.schema
    by_cell: dict[tuple[str, str], list[int]] = {
        (side, attribute): []
        for side in _SIDES
        for attribute in schema.attributes
    }
    for column, (side, token) in enumerate(tokens):
        by_cell[(side, token.attribute)].append(column)

    columns: dict[tuple[str, str], ValueColumn] = {}
    for key, token_columns in by_cell.items():
        words = [tokens[c][1].word for c in token_columns]
        positions = [tokens[c][1].position for c in token_columns]
        columns[key] = _masked_value_column(
            words, positions, masks[:, token_columns]
        )
    return ColumnarPairBatch(pair, columns, n_rows)


def removal_batch(
    pair: RecordPair,
    key_sets: Sequence[Iterable[tuple[str, str, int]]],
) -> ColumnarPairBatch:
    """Row *i* is *pair* with every token ``key_sets[i]`` addresses removed.

    A key is ``(side, attribute, position)``; keys that address no token
    are ignored.  Rows are :func:`mojito_drop_batch` rows, so every value
    is rebuilt from its kept tokens: a row that removes nothing still
    carries the normalized values.
    """
    tokenizer = Tokenizer()
    tokens = [
        (side, token)
        for side in _SIDES
        for token in tokenizer.tokenize_entity(pair.entity(side))
    ]
    column = {
        (side, token.attribute, token.position): index
        for index, (side, token) in enumerate(tokens)
    }
    masks = np.ones((len(key_sets), len(tokens)), dtype=np.int8)
    for row, keys in enumerate(key_sets):
        for key in keys:
            index = column.get(key)
            if index is not None:
                masks[row, index] = 0
    return mojito_drop_batch(pair, tokens, masks)


def mojito_attr_drop_batch(
    pair: RecordPair,
    cells: list[tuple[str, str]],
    masks: np.ndarray,
) -> ColumnarPairBatch:
    """Columnar form of Mojito attribute-drop masks.

    Cell *j* off empties that *(side, attribute)*; untouched cells keep
    the original value on every row.
    """
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1] != len(cells):
        raise ValueError(
            f"mask width {masks.shape[1] if masks.ndim == 2 else masks.shape}"
            f" != cell count {len(cells)}"
        )
    n_rows = masks.shape[0]
    schema = pair.schema
    columns: dict[tuple[str, str], ValueColumn] = {
        (side, attribute): ValueColumn.constant(
            pair.entity(side)[attribute], n_rows
        )
        for side in _SIDES
        for attribute in schema.attributes
    }
    for feature, (side, attribute) in enumerate(cells):
        original = pair.entity(side)[attribute]
        columns[(side, attribute)] = ValueColumn(
            [original, ""],
            np.where(masks[:, feature] != 0, 0, 1).astype(np.intp),
        )
    return ColumnarPairBatch(pair, columns, n_rows)


def mojito_copy_batch(
    pair: RecordPair,
    copy_from: str,
    masks: np.ndarray,
) -> ColumnarPairBatch:
    """Columnar form of Mojito Copy masks.

    Feature *j* off copies the source side's attribute *j* over the
    target side's value; the source side never changes.
    """
    masks = np.asarray(masks)
    attributes = pair.schema.attributes
    if masks.ndim != 2 or masks.shape[1] != len(attributes):
        raise ValueError(
            f"mask width {masks.shape[1] if masks.ndim == 2 else masks.shape}"
            f" != attribute count {len(attributes)}"
        )
    n_rows = masks.shape[0]
    copy_to = "right" if copy_from == "left" else "left"
    source = pair.entity(copy_from)
    target = pair.entity(copy_to)
    columns: dict[tuple[str, str], ValueColumn] = {}
    for feature, attribute in enumerate(attributes):
        columns[(copy_from, attribute)] = ValueColumn.constant(
            source[attribute], n_rows
        )
        columns[(copy_to, attribute)] = ValueColumn(
            [target[attribute], source[attribute]],
            np.where(masks[:, feature] != 0, 0, 1).astype(np.intp),
        )
    return ColumnarPairBatch(pair, columns, n_rows)
