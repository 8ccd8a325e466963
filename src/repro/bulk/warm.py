"""The store-warming job: ``precompute`` as a thin bulk-shaped runner.

Warming is the degenerate bulk workload — enumerate pairs (the same
:func:`~repro.bulk.source.select_pairs` the full :class:`~repro.bulk.job.
BulkJob` uses, so the two paths can never drift apart) and push each
through a live :class:`~repro.service.service.ExplanationService` so the
result lands in its store.  No aggregation and no journal: the store *is*
the output and the only record of which keys are done, so a resumed run
skips every key the store can already serve, whoever wrote it.

The ``precompute`` CLI command and the :mod:`repro.service` package
exports reach this module lazily; it imports the serving layer, never
the other way round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.bulk.source import select_pairs
from repro.data.records import EMDataset
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService

logger = logging.getLogger("repro.service")


@dataclass
class PrecomputeReport:
    """Outcome of one store-warming run."""

    n_pairs: int = 0
    n_submitted: int = 0
    n_skipped: int = 0
    n_failed: int = 0
    failed_pair_ids: list[int] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"precompute: {self.n_pairs} pairs, "
            f"{self.n_submitted} submitted, {self.n_skipped} skipped "
            f"(already warm), {self.n_failed} failed"
        )


def precompute(
    service: ExplanationService,
    dataset: EMDataset,
    per_label: int | None = None,
    method: str = "both",
    samples: int = 128,
    explainer: str = "lime",
    seed: int = 0,
    resume: bool = False,
) -> PrecomputeReport:
    """Warm the service's store for a dataset split, resumably.

    *per_label* samples that many records per label (the experiment
    protocol's split); ``None`` warms every record.  A ``resume=True``
    run skips every pair whose key the service's store can already serve
    and submits the rest; without it every pair is submitted (the
    service still answers warm keys from the store).  A sharded service
    has no local store, so it skips nothing.  Failed records are
    isolated and reported, not fatal.
    """
    pairs = select_pairs(dataset, per_label, seed=seed)
    store = service.store if resume else None
    report = PrecomputeReport(n_pairs=len(pairs))
    pending = []
    for pair in pairs:
        request = ExplainRequest(
            pair=pair,
            method=method,
            samples=samples,
            explainer=explainer,
            seed=seed,
            # Warming yields to interactive traffic on the shared queue.
            priority=100,
        )
        if store is not None and store.contains(service.key_for(request)):
            report.n_skipped += 1
            continue
        pending.append((pair.pair_id, service.submit(request, block=True)))
        report.n_submitted += 1
    for pair_id, future in pending:
        try:
            future.result()
        except Exception:  # noqa: BLE001 - warming isolates any failure
            report.n_failed += 1
            report.failed_pair_ids.append(pair_id)
            logger.warning("precompute: pair %s failed", pair_id)
    return report
