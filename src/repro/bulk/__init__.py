"""``repro.bulk`` — dataset-scale bulk explanation jobs.

The serving stack (:mod:`repro.service`) answers one explanation at a
time; this package answers *"explain the whole dataset"*:

* :mod:`repro.bulk.source` — deterministic pair streams: dataset rows
  (:class:`DatasetSource`), blocker candidates (:class:`BlockedSource`),
  or an explicit pair-list file (:class:`PairListSource`), all sharing
  :func:`select_pairs` with the ``precompute`` warmer;
* :mod:`repro.bulk.job` — the chunked :class:`BulkJob` runner: store
  dedup per chunk, streaming :class:`~repro.core.summarize.GlobalSummary`
  aggregation, journaled resume that reproduces an uninterrupted run
  byte-for-byte, and ``repro_bulk_*`` progress metrics;
* :mod:`repro.bulk.warm` — the store-only warming job behind the
  ``precompute`` CLI command.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BULK_FORMAT_VERSION": ".job",
    "BULK_JOURNAL": ".job",
    "BULK_PRIORITY": ".job",
    "BlockedSource": ".source",
    "BulkJob": ".job",
    "BulkJobSpec": ".job",
    "BulkReport": ".job",
    "DatasetSource": ".source",
    "PairListSource": ".source",
    "PrecomputeReport": ".warm",
    "precompute": ".warm",
    "select_pairs": ".source",
})
