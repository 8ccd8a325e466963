"""Dataset-scale bulk explanation jobs.

:class:`BulkJob` streams a pair source through the guarded
:class:`~repro.core.engine.PredictionEngine` in fixed-size chunks and
folds every explanation into a streaming
:class:`~repro.core.summarize.GlobalSummary` — per-attribute and
per-token importance across the whole dataset — without ever holding the
explanations themselves in memory.

The contract, in order of importance:

* **Determinism.**  A bulk-path explanation payload is bit-identical to
  the service path's (:func:`~repro.service.service.
  compute_explanation_payload` is the one definition both call), and the
  aggregation is a sequential fold in pair order, so the report is a pure
  function of (matcher fingerprint, source, spec).
* **Resume.**  With a *run_dir*, every completed chunk appends one event
  to ``bulk.jsonl`` (via the fsync'd
  :class:`~repro.evaluation.persistence.JournalWriter`) carrying the
  chunk's counters and the *cumulative* summary snapshot.  A killed run
  resumed with ``resume=True`` restores the snapshot — JSON floats
  round-trip exactly — and continues the same fold, so the final report
  is **byte-identical** to an uninterrupted run's.
* **Dedup.**  Each chunk probes the
  :class:`~repro.service.store.ExplanationStore` first
  (:meth:`~repro.service.store.ExplanationStore.get_many`, one
  transaction) and writes its fresh results back with
  :meth:`~repro.service.store.ExplanationStore.put_many` (one
  transaction) — explanations computed by an earlier job, a serving
  process or a previous attempt of this job are never recomputed.
* **Isolation.**  A pair that fails to explain becomes a
  :class:`~repro.evaluation.ledger.FailureEntry` and is excluded from
  the fold; the job keeps going.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.serialize import matcher_fingerprint
from repro.core.summarize import GlobalSummary
from repro.evaluation.ledger import KIND_SKIPPED, FailureEntry, FailureLedger
from repro.evaluation.persistence import JournalWriter, read_journal
from repro.exceptions import CheckpointError, ConfigurationError
from repro.obs.metrics import (
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsRegistry,
    StatsInstruments,
    stat,
)
from repro.obs.progress import ProgressTracker
from repro.service.request import ExplainRequest, request_key
from repro.service.service import compute_explanation_payload
from repro.service.store import ExplanationStore

logger = logging.getLogger("repro.bulk")

#: Journal file name inside a bulk run directory.
BULK_JOURNAL = "bulk.jsonl"

#: Format version of the journal header and the report artifact.
BULK_FORMAT_VERSION = 1

#: Queue/engine priority bulk requests would carry on a shared service
#: (kept on the request for parity with the precompute path).
BULK_PRIORITY = 100


@dataclass(frozen=True)
class BulkJobSpec:
    """Everything result-affecting about a bulk job, minus the source.

    ``chunk_size`` shapes scheduling and journaling granularity but not
    results: the fold is sequential in pair order either way.  It still
    enters the journal identity — resuming with a different chunking
    would reorder the *partial* snapshots, and refusing is cheaper than
    reasoning about it.
    """

    method: str = "both"
    samples: int = 128
    explainer: str = "lime"
    seed: int = 0
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    def to_payload(self) -> dict:
        return {
            "method": self.method,
            "samples": self.samples,
            "explainer": self.explainer,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
        }

    def request_for(self, pair) -> ExplainRequest:
        return ExplainRequest(
            pair=pair,
            method=self.method,
            samples=self.samples,
            explainer=self.explainer,
            seed=self.seed,
            priority=BULK_PRIORITY,
        )


@dataclass
class BulkReport:
    """Outcome of one bulk run: counters + the streaming aggregation."""

    n_pairs: int = 0
    n_chunks: int = 0
    #: Pairs explained fresh this run (unique computations).
    n_computed: int = 0
    #: Pairs answered without a fresh computation: found in the store
    #: (cross-job dedup) or duplicated within their own chunk.
    n_dedup_hits: int = 0
    n_failed: int = 0
    failed_pair_ids: list[int] = field(default_factory=list)
    #: Chunks restored from the journal instead of re-run.
    resumed_chunks: int = 0
    elapsed_seconds: float = 0.0
    summary: GlobalSummary = field(default_factory=GlobalSummary)
    ledger: FailureLedger = field(default_factory=FailureLedger)

    @property
    def dedup_rate(self) -> float:
        """Fraction of processed pairs served without recomputation."""
        processed = self.n_computed + self.n_dedup_hits
        return self.n_dedup_hits / processed if processed else 0.0

    def report_payload(self, spec: BulkJobSpec, source_description: dict,
                       fingerprint: str) -> dict:
        """The deterministic report artifact.

        Everything here is a pure function of (matcher, source, spec):
        a killed-and-resumed run produces the same bytes as an
        uninterrupted one.  Run-shaped counters (dedup hits, resumed
        chunks, wall time) deliberately live in :meth:`stats_payload`
        instead — they honestly differ between the two histories.
        """
        return {
            "format_version": BULK_FORMAT_VERSION,
            "job": spec.to_payload(),
            "source": source_description,
            "matcher_fingerprint": fingerprint,
            "n_pairs": self.n_pairs,
            "n_failed": self.n_failed,
            "failed_pair_ids": sorted(self.failed_pair_ids),
            "summary": self.summary.to_payload(),
        }

    def stats_payload(self) -> dict:
        """Run accounting (non-deterministic across resume histories)."""
        return {
            "n_pairs": self.n_pairs,
            "n_chunks": self.n_chunks,
            "n_computed": self.n_computed,
            "n_dedup_hits": self.n_dedup_hits,
            "n_failed": self.n_failed,
            "resumed_chunks": self.resumed_chunks,
            "dedup_rate": round(self.dedup_rate, 4),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def render(self, top: int = 15) -> str:
        lines = [
            (
                f"bulk job: {self.n_pairs} pairs in {self.n_chunks} chunks "
                f"({self.n_computed} computed, {self.n_dedup_hits} dedup "
                f"hits, {self.n_failed} failed, {self.resumed_chunks} "
                f"chunks resumed) in {self.elapsed_seconds:.1f}s"
            ),
            self.summary.render(top),
        ]
        if len(self.ledger):
            lines.append(self.ledger.summary())
        return "\n".join(lines)


@dataclass
class BulkStats:
    """Counter snapshot of one :class:`BulkJob`'s instruments.

    Each field declares the instrument it reads, labeled
    ``component="bulk"``.  Unlike :class:`BulkReport`'s counters, these
    count only this process's work: chunks replayed from the journal
    show up in ``resumed_chunks`` alone.
    """

    chunks: int = stat(
        "repro_bulk_chunks_total", "Chunks completed (computed, not resumed)"
    )
    pairs: int = stat(
        "repro_bulk_pairs_total", "Pairs processed by completed chunks"
    )
    computed: int = stat("repro_bulk_computed_total", "Pairs explained fresh")
    dedup_hits: int = stat(
        "repro_bulk_dedup_hits_total",
        "Pairs answered from the store or an intra-chunk duplicate",
    )
    failures: int = stat(
        "repro_bulk_failures_total", "Pairs that failed to explain"
    )
    resumed_chunks: int = stat(
        "repro_bulk_resumed_chunks_total",
        "Chunks restored from the journal instead of re-run",
    )
    progress: int = stat(
        "repro_bulk_progress_pairs", "Pairs finished so far", GAUGE
    )
    total: int = stat(
        "repro_bulk_total_pairs", "Pairs the job will process", GAUGE
    )
    #: Wall time of the computed chunks.
    chunk_seconds: float = stat(
        "repro_bulk_chunk_seconds", "Wall time per computed chunk",
        HISTOGRAM, view="sum",
    )

    #: Exported, but not part of the snapshot: an estimate, not a count.
    registry_only: ClassVar[tuple[Metric, ...]] = (
        Metric(
            "repro_bulk_eta_seconds",
            "Estimated seconds to completion (-1 before the first sample)",
            GAUGE, attr="eta",
        ),
    )

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class BulkJob:
    """One dataset-scale bulk explanation job.

    *on_chunk* is an optional ``(chunk_index, job) -> None`` callback
    fired after each chunk's journal event is durable — the kill-and-
    resume drill raises from it to simulate a crash at an exact chunk
    boundary.
    """

    def __init__(
        self,
        matcher,
        source,
        spec: BulkJobSpec | None = None,
        store: ExplanationStore | None = None,
        run_dir: str | Path | None = None,
        engine_config: EngineConfig | None = None,
        metrics: MetricsRegistry | None = None,
        on_chunk=None,
    ) -> None:
        self.matcher = matcher
        self.source = source
        self.spec = spec or BulkJobSpec()
        self.store = store
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.metrics = (
            metrics
            if metrics is not None
            else (store.metrics if store is not None else MetricsRegistry())
        )
        self.engine = PredictionEngine(
            matcher, engine_config, metrics=self.metrics
        )
        self.fingerprint = matcher_fingerprint(matcher)
        self.on_chunk = on_chunk
        self._instruments = StatsInstruments(self.metrics, BulkStats, "bulk")
        self.progress: ProgressTracker | None = None

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def _journal_header(self) -> dict:
        return {
            "event": "config",
            "format_version": BULK_FORMAT_VERSION,
            "spec": self.spec.to_payload(),
            "source": self.source.describe(),
            "fingerprint": self.fingerprint,
        }

    def _load_resume_state(
        self, path: Path, report: BulkReport
    ) -> tuple[JournalWriter, int]:
        """Replay ``bulk.jsonl`` → (journal writer, chunks to skip)."""
        events = read_journal(path)
        header = self._journal_header()
        if not events or events[0].get("event") != "config":
            raise CheckpointError(
                f"bulk journal {path} does not start with a config event"
            )
        stored = {key: events[0].get(key) for key in header}
        if stored != header:
            raise CheckpointError(
                f"bulk journal {path} was written for a different job "
                f"(source, spec or matcher changed); refusing to resume"
            )
        next_index = 0
        last_summary: dict | None = None
        for event in events[1:]:
            if event.get("event") != "chunk":
                continue
            if event.get("index") != next_index:
                raise CheckpointError(
                    f"bulk journal {path} has chunk {event.get('index')!r} "
                    f"out of order (expected {next_index}); refusing to "
                    f"resume a corrupt journal"
                )
            report.n_computed += int(event.get("n_computed", 0))
            report.n_dedup_hits += int(event.get("n_dedup", 0))
            for entry in event.get("failures", ()):
                report.ledger.add(FailureEntry.from_dict(entry))
                report.n_failed += 1
                report.failed_pair_ids.append(int(entry.get("record_id", -1)))
            last_summary = event.get("summary")
            next_index += 1
        if last_summary is not None:
            report.summary = GlobalSummary.from_payload(last_summary)
        report.resumed_chunks = next_index
        return JournalWriter(path, fresh=False), next_index

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, resume: bool = False) -> BulkReport:
        started = time.perf_counter()
        pairs = self.source.pairs()
        spec = self.spec
        chunks = [
            pairs[offset:offset + spec.chunk_size]
            for offset in range(0, len(pairs), spec.chunk_size)
        ]
        report = BulkReport(n_pairs=len(pairs), n_chunks=len(chunks))

        journal: JournalWriter | None = None
        skip = 0
        if self.run_dir is not None:
            path = self.run_dir / BULK_JOURNAL
            if resume and path.exists():
                journal, skip = self._load_resume_state(path, report)
            else:
                journal = JournalWriter(path, fresh=True)
                journal.append(self._journal_header())

        instruments = self._instruments
        self.progress = ProgressTracker(len(pairs))
        done_pairs = skip * spec.chunk_size if chunks else 0
        done_pairs = min(done_pairs, len(pairs))
        self.progress.done = done_pairs
        if skip:
            instruments.resumed_chunks.inc(skip)
            logger.info(
                "bulk: resuming at chunk %d/%d (%d pairs already folded)",
                skip, len(chunks), done_pairs,
            )
        self.metrics.bulk(
            (
                (instruments.total, float(len(pairs))),
                (instruments.progress, float(done_pairs)),
                (instruments.eta, -1.0),
            )
        )

        for index, chunk in enumerate(chunks):
            if index < skip:
                continue
            chunk_started = time.perf_counter()
            n_computed, n_dedup, failures = self._run_chunk(chunk, report)
            chunk_elapsed = time.perf_counter() - chunk_started
            if journal is not None:
                journal.append(
                    {
                        "event": "chunk",
                        "index": index,
                        "n_pairs": len(chunk),
                        "n_computed": n_computed,
                        "n_dedup": n_dedup,
                        "failures": [entry.to_dict() for entry in failures],
                        "summary": report.summary.to_payload(),
                    }
                )
            self.progress.advance(len(chunk))
            eta = self.progress.eta_seconds()
            self.metrics.bulk(
                (
                    (instruments.chunks, 1.0),
                    (instruments.pairs, float(len(chunk))),
                    (instruments.computed, float(n_computed)),
                    (instruments.dedup_hits, float(n_dedup)),
                    (instruments.failures, float(len(failures))),
                    (instruments.chunk_seconds, chunk_elapsed),
                    (instruments.progress, float(self.progress.done)),
                    (instruments.eta, -1.0 if eta is None else eta),
                )
            )
            logger.info(
                "bulk: chunk %d/%d done in %.2fs (%s)",
                index + 1, len(chunks), chunk_elapsed, self.progress.render(),
            )
            if self.on_chunk is not None:
                self.on_chunk(index, self)

        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _run_chunk(
        self, chunk, report: BulkReport
    ) -> tuple[int, int, list[FailureEntry]]:
        """Process one chunk; returns (computed, dedup hits, failures).

        The store probe and write-back each take one transaction; the
        fold happens strictly in pair order, so the summary arithmetic is
        independent of where each payload came from (a stored payload is
        a JSON round-trip of the computed one — floats survive exactly).
        """
        spec = self.spec
        requests = [spec.request_for(pair) for pair in chunk]
        keys = [request_key(self.fingerprint, request) for request in requests]
        found: dict[str, dict] = {}
        if self.store is not None:
            found = self.store.get_many(list(dict.fromkeys(keys)))
        n_dedup = 0
        fresh: dict[str, dict] = {}
        failed_keys: dict[str, FailureEntry] = {}
        failures: list[FailureEntry] = []
        for pair, request, key in zip(chunk, requests, keys):
            if key in found or key in fresh:
                n_dedup += 1
                continue
            if key in failed_keys:
                failures.append(failed_keys[key])
                continue
            try:
                fresh[key] = compute_explanation_payload(
                    self.matcher, self.engine, self.fingerprint, key, request
                )
            except Exception as error:  # noqa: BLE001 - per-pair isolation
                entry = FailureEntry.from_exception(
                    dataset=self.source.describe().get("dataset", ""),
                    label=pair.label,
                    method=spec.method,
                    record_id=pair.pair_id,
                    error=error,
                    kind=KIND_SKIPPED,
                )
                failed_keys[key] = entry
                failures.append(entry)
                logger.warning(
                    "bulk: pair %s failed: %s", pair.pair_id, error
                )
        if self.store is not None and fresh:
            self.store.put_many(list(fresh.items()))
        # Fold in pair order — the order, not the payload's origin,
        # defines the arithmetic.
        for key in keys:
            payload = fresh.get(key)
            if payload is None:
                payload = found.get(key)
            if payload is None:
                continue  # failed pair: ledgered, not folded
            report.summary.add_result_payload(payload)
        for entry in failures:
            report.ledger.add(entry)
            report.failed_pair_ids.append(entry.record_id)
        report.n_computed += len(fresh)
        report.n_dedup_hits += n_dedup
        report.n_failed += len(failures)
        return len(fresh), n_dedup, failures
