"""Dirty-variant construction, the Magellan way.

The "Dirty" datasets of the DeepMatcher benchmark (D-IA, D-DA, D-DG, D-WA)
were derived from their structured counterparts by *moving attribute values
into the wrong column*: for each attribute other than the anchor attribute,
with 50% probability its value is appended to the anchor attribute (usually
``title``) of the same entity and the source attribute is emptied.

:func:`make_dirty` reproduces that construction on any
:class:`~repro.data.records.EMDataset`.
"""

from __future__ import annotations

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.data.synthetic.stream import RandomStream


def _dirty_entity(
    entity: dict[str, str],
    anchor: str,
    rng: np.random.Generator,
    move_probability: float,
) -> dict[str, str]:
    dirty = dict(entity)
    for attribute, value in entity.items():
        if attribute == anchor or not value:
            continue
        if rng.random() < move_probability:
            dirty[anchor] = f"{dirty[anchor]} {value}".strip()
            dirty[attribute] = ""
    return dirty


def make_dirty(
    dataset: EMDataset,
    anchor: str | None = None,
    move_probability: float = 0.5,
    seed: int = 0,
    name: str | None = None,
) -> EMDataset:
    """Return a dirty variant of *dataset*.

    *anchor* is the attribute that absorbs misplaced values; when omitted the
    first schema attribute is used (``title`` / ``name`` / ``song_name`` in
    every benchmark schema).  Labels are untouched: dirtiness changes where
    information lives, not whether the entities match.
    """
    if anchor is None:
        anchor = dataset.schema.attributes[0]
    if anchor not in dataset.schema:
        raise ValueError(f"anchor attribute {anchor!r} not in schema")
    if not 0.0 <= move_probability <= 1.0:
        raise ValueError(f"move_probability must be in [0, 1], got {move_probability}")
    rng = RandomStream(seed)
    dirty_pairs = []
    for pair in dataset:
        dirty_pairs.append(
            RecordPair(
                schema=dataset.schema,
                left=_dirty_entity(dict(pair.left), anchor, rng, move_probability),
                right=_dirty_entity(dict(pair.right), anchor, rng, move_probability),
                label=pair.label,
                pair_id=pair.pair_id,
            )
        )
    return EMDataset(
        name=name or f"dirty-{dataset.name}",
        schema=dataset.schema,
        pairs=dirty_pairs,
    )
