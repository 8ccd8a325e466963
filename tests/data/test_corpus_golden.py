"""The synthetic corpus is pinned by ``tests/golden/corpus.json``.

Every experiment, matcher and stored explanation starts from
:func:`~repro.data.synthetic.magellan.load_dataset`, so a change to how the
corpus draws its random numbers must leave every dataset byte-identical.
This test pins one sha256 per dataset over, for each pair in dataset order,
``(pair_id, label, sorted left items, sorted right items)``:

- all twelve codes at seeds 0 and 1, capped at ``SIZE_CAP`` pairs;
- S-BR, S-IA, S-FZ and D-IA at their full Table 1 size;
- :meth:`SyntheticEMGenerator.generate_tables` for two factories, over
  ``(left table, right table, sorted gold)``.

Regenerate the golden (only for a deliberate change of the corpus, and say
why in CHANGES.md) with::

    PYTHONPATH=src python tests/data/test_corpus_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.data.synthetic.generator import SyntheticEMGenerator
from repro.data.synthetic.magellan import DATASET_CODES, load_dataset
from repro.data.synthetic.vocabularies import (
    RESTAURANT_FACTORY,
    WALMART_AMAZON_FACTORY,
)

GOLDEN = Path(__file__).parents[1] / "golden" / "corpus.json"
REGENERATE = "PYTHONPATH=src python tests/data/test_corpus_golden.py"

SEEDS = (0, 1)
SIZE_CAP = 250
FULL_SIZE = ("S-BR", "S-IA", "S-FZ", "D-IA")
TABLES = ((RESTAURANT_FACTORY, 13, 80), (WALMART_AMAZON_FACTORY, 3, 150))


def _digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _dataset_digest(dataset) -> str:
    return _digest([
        [pair.pair_id, pair.label, sorted(pair.left.items()), sorted(pair.right.items())]
        for pair in dataset
    ])


def golden_entries() -> dict[str, str]:
    """``{"<code>/seed<seed>/<cap or full>": digest}`` for the whole grid."""
    entries = {}
    for code in DATASET_CODES:
        for seed in SEEDS:
            dataset = load_dataset(code, seed=seed, size_cap=SIZE_CAP)
            entries[f"{code}/seed{seed}/cap{SIZE_CAP}"] = _dataset_digest(dataset)
    for code in FULL_SIZE:
        entries[f"{code}/seed0/full"] = _dataset_digest(load_dataset(code, seed=0))
    for factory, seed, n_entities in TABLES:
        generator = SyntheticEMGenerator(factory, seed=seed)
        left, right, gold = generator.generate_tables(n_entities, overlap=0.5)
        entries[f"tables/{factory.name}/seed{seed}/n{n_entities}"] = _digest([
            [sorted(row.items()) for row in left],
            [sorted(row.items()) for row in right],
            sorted(gold),
        ])
    return entries


def _render(entries: dict[str, str]) -> str:
    return json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n"


def test_corpus_matches_golden():
    was = json.loads(GOLDEN.read_text(encoding="utf-8"))["entries"]
    now = golden_entries()
    moved = sorted(key for key in set(was) | set(now) if was.get(key) != now.get(key))
    assert not moved, (
        f"{len(moved)} of {len(was)} golden corpus entries moved:\n"
        + "\n".join(moved)
        + f"\nif the change is deliberate, regenerate with: {REGENERATE}"
    )


if __name__ == "__main__":
    GOLDEN.write_text(_render(golden_entries()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
