"""Synthetic stand-ins for the Magellan EM benchmark.

The paper evaluates on twelve datasets from the Magellan / DeepMatcher
benchmark (Table 1).  Those CSVs are not redistributable and no network is
available in this environment, so this package builds *deterministic
synthetic equivalents* with the same schemas, sizes and match rates, and —
crucially — the same structural properties the experiments exercise:

* pair-structured records over a handful of domains (beer, music,
  restaurants, bibliography, products);
* matching pairs that are *noisy views* of the same world entity (token
  drops, typos, abbreviations, value formatting drift);
* non-matching pairs with a controlled share of *hard negatives* that share
  brands / venues / title words, so token overlap alone does not decide the
  class;
* dirty variants built the Magellan way: attribute values moved into the
  wrong column, leaving the source empty.

See DESIGN.md §4 for the substitution rationale.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CorruptionConfig": ".corruption",
    "DATASET_CODES": ".magellan",
    "DATASET_SPECS": ".magellan",
    "DatasetSpec": ".magellan",
    "SyntheticEMGenerator": ".generator",
    "corrupt_entity": ".corruption",
    "load_benchmark": ".magellan",
    "load_dataset": ".magellan",
    "make_dirty": ".dirty",
})
