"""EM data substrate: schemas, record pairs, datasets, io and splits.

Entity matching data has an unusual shape for machine learning: every row
describes *two* entities through paired columns (``left_name`` /
``right_name``, ``left_price`` / ``right_price``, ...), plus a binary label
telling whether the two sides refer to the same real-world entity.  This
package gives that shape a first-class representation:

* :class:`~repro.data.schema.PairSchema` — the shared attribute list and the
  left/right column naming convention.
* :class:`~repro.data.records.RecordPair` — one labelled pair of entities.
* :class:`~repro.data.records.EMDataset` — a named collection of pairs with
  label statistics, filtering, sampling and splitting.
* :mod:`repro.data.io` — CSV round-tripping in the Magellan flat layout.
* :mod:`repro.data.synthetic` — deterministic generators reproducing the
  twelve Magellan benchmark datasets of the paper's Table 1.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DatasetProfile": ".profiling",
    "EMDataset": ".records",
    "LEFT_PREFIX": ".schema",
    "PairSchema": ".schema",
    "RIGHT_PREFIX": ".schema",
    "RecordPair": ".records",
    "profile_dataset": ".profiling",
    "read_csv": ".io",
    "sample_per_label": ".splits",
    "train_test_split": ".splits",
    "write_csv": ".io",
})
