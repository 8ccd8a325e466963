"""The synthetic EM dataset generator.

Given an :class:`~repro.data.synthetic.vocabularies.EntityFactory`, a size
and a match rate, :class:`SyntheticEMGenerator` emits an
:class:`~repro.data.records.EMDataset` whose pairs follow the benchmark's
structural recipe:

* a **matching** pair is two independently corrupted views of one world
  entity;
* a **hard non-matching** pair corrupts a world entity and a deliberately
  similar sibling (same brand / venue / artist, different identity);
* an **easy non-matching** pair corrupts two unrelated world entities.

The hard-negative share is configurable; it is what makes the learned EM
model rely on *discriminative* tokens (model numbers, song titles) rather
than any token overlap — the property Landmark Explanation's experiments
probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.records import EMDataset, MATCH, NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.data.synthetic.corruption import CorruptionConfig, corrupt_entity
from repro.data.synthetic.stream import RandomStream
from repro.data.synthetic.vocabularies import EntityFactory
from repro.exceptions import DatasetError


@dataclass
class SyntheticEMGenerator:
    """Deterministic generator of labelled EM pairs for one domain."""

    factory: EntityFactory
    match_rate: float = 0.15
    hard_negative_fraction: float = 0.75
    corruption: CorruptionConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.match_rate < 1.0:
            raise DatasetError(
                f"match_rate must be in (0, 1), got {self.match_rate}"
            )
        if not 0.0 <= self.hard_negative_fraction <= 1.0:
            raise DatasetError(
                "hard_negative_fraction must be in [0, 1], got "
                f"{self.hard_negative_fraction}"
            )
        if self.corruption is None:
            self.corruption = CorruptionConfig()

    @property
    def schema(self) -> PairSchema:
        return PairSchema(self.factory.attributes)

    def _match_pair(
        self, rng: np.random.Generator, schema: PairSchema, pair_id: int
    ) -> RecordPair:
        world = self.factory.make(rng)
        return RecordPair(
            schema=schema,
            left=corrupt_entity(world, rng, self.corruption),
            right=corrupt_entity(world, rng, self.corruption),
            label=MATCH,
            pair_id=pair_id,
        )

    def _non_match_pair(
        self, rng: np.random.Generator, schema: PairSchema, pair_id: int
    ) -> RecordPair:
        world_a = self.factory.make(rng)
        if rng.random() < self.hard_negative_fraction:
            world_b = self.factory.make_similar(rng, world_a)
        else:
            world_b = self.factory.make(rng)
        return RecordPair(
            schema=schema,
            left=corrupt_entity(world_a, rng, self.corruption),
            right=corrupt_entity(world_b, rng, self.corruption),
            label=NON_MATCH,
            pair_id=pair_id,
        )

    def generate_tables(
        self, n_entities: int, overlap: float = 0.5
    ) -> tuple[list[dict[str, str]], list[dict[str, str]], set[tuple[int, int]]]:
        """Two dirty catalogs of the same domain plus the gold matching.

        The left table holds one corrupted view of each of *n_entities*
        world entities; the right table holds views of an ``overlap``
        fraction of the same worlds (the gold matches) padded with similar
        siblings of left entities — realistic near-miss distractors for a
        blocking + matching pipeline (see ``examples/end_to_end_em.py``).

        Returns ``(left_table, right_table, gold)`` where gold contains
        ``(left_index, right_index)`` pairs.
        """
        if n_entities < 1:
            raise DatasetError(f"n_entities must be >= 1, got {n_entities}")
        if not 0.0 <= overlap <= 1.0:
            raise DatasetError(f"overlap must be in [0, 1], got {overlap}")
        rng = RandomStream(self.seed)
        worlds = [self.factory.make(rng) for _ in range(n_entities)]
        left_table = [corrupt_entity(world, rng, self.corruption) for world in worlds]

        n_shared = int(round(overlap * n_entities))
        shared_ids = rng.choice(n_entities, size=n_shared, replace=False)
        right_table: list[dict[str, str]] = []
        gold: set[tuple[int, int]] = set()
        for left_id in shared_ids:
            gold.add((int(left_id), len(right_table)))
            right_table.append(
                corrupt_entity(worlds[int(left_id)], rng, self.corruption)
            )
        for _ in range(n_entities - n_shared):
            seed_world = worlds[int(rng.integers(n_entities))]
            distractor = self.factory.make_similar(rng, seed_world)
            right_table.append(corrupt_entity(distractor, rng, self.corruption))
        order = rng.permutation(len(right_table))
        position = {int(old): new for new, old in enumerate(order)}
        right_table = [right_table[int(old)] for old in order]
        gold = {(left_id, position[right_id]) for left_id, right_id in gold}
        return left_table, right_table, gold

    def generate(self, size: int, name: str | None = None) -> EMDataset:
        """Generate a dataset of *size* pairs with the configured match rate.

        The number of matches is ``round(size * match_rate)`` and pair order
        is shuffled, so class positions carry no information.
        """
        if size < 2:
            raise DatasetError(f"size must be >= 2, got {size}")
        rng = RandomStream(self.seed)
        schema = self.schema
        n_matches = int(round(size * self.match_rate))
        n_matches = min(max(n_matches, 1), size - 1)
        pairs: list[RecordPair] = []
        for pair_id in range(n_matches):
            pairs.append(self._match_pair(rng, schema, pair_id))
        for pair_id in range(n_matches, size):
            pairs.append(self._non_match_pair(rng, schema, pair_id))
        order = rng.permutation(size)
        shuffled = [pairs[int(index)] for index in order]
        return EMDataset(
            name=name or f"synthetic-{self.factory.name}",
            schema=schema,
            pairs=shuffled,
        )
