"""The batched prediction engine: the layer between reconstruction and
the black-box matcher.

Perturbation explainers are bounded by the number of model predictions
they spend (LEMON's "prediction budget" observation): every explanation
rebuilds ``n_samples`` record pairs per landmark side and sends each batch
to :meth:`~repro.matchers.base.EntityMatcher.predict_proba`, and the
evaluation runner repeats that for every (record × method ×
generation-mode) cell.  Much of that spend is redundant:

* identical mask rows rebuild — and re-predict — the same pair;
* distinct masks can still rebuild identical pairs (duplicate words inside
  an attribute value, injected tokens equal to the varying entity's own);
* the Single / Double / Mojito columns of the evaluation grid re-explain
  the *same* records, so the anchor rows and many perturbations recur
  across methods, landmark sides and evaluation stages.

:class:`PredictionEngine` removes the redundancy without changing a single
output bit: predictions are deduplicated by the **content of the rebuilt
pair**, answered from an LRU cache when possible, executed otherwise in
chunks that run in order on the calling thread, and scattered back to the
full request.  Every entry point reaches the matcher as a
:class:`~repro.core.columnar.ColumnarPairBatch` (pairs are wrapped by
:func:`~repro.core.columnar.pairs_batch`), so there is one resolution path
and one backend call.  Because every matcher in this library scores pairs
row-independently and deterministically, the scattered probabilities are
byte-identical to the naive path — equivalence is enforced by
``tests/core/test_engine.py``, on single records and the evaluation grid.

Observability
-------------
Engine accounting lives in :class:`~repro.obs.metrics.MetricsRegistry`
instruments labeled ``component="engine"`` (counters for the dedup/cache
bookkeeping, ``repro_stage_seconds`` histograms for the rebuild and
predict stages, a cache-size gauge), all declared by the fields of
:class:`EngineStats` — a plain snapshot over them, taken atomically so
concurrent workers can never observe mixed counter generations.  The
rebuild and matcher-call sections also open ``reconstruction`` /
``prediction`` trace spans (see :mod:`repro.obs.tracing`) — no-ops
unless ``--trace`` is on.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from typing import ClassVar

import numpy as np

from repro.config import EngineConfig  # noqa: F401 - re-exported
from repro.core.columnar import ColumnarPairBatch, landmark_batch, pairs_batch
from repro.core.generation import GeneratedInstance
from repro.core.guard import GuardStats, MatcherGuard
from repro.data.records import EMDataset, RecordPair
from repro.exceptions import ExplanationError
from repro.matchers.base import EntityMatcher, columnar_scorer
from repro.obs.metrics import (
    GAUGE,
    HISTOGRAM,
    ROW_BUCKETS,
    Metric,
    MetricsRegistry,
    StatsInstruments,
    same_stat,
    stat,
)
from repro.obs.tracing import trace

@dataclass
class EngineStats:
    """Counter snapshot of one :class:`PredictionEngine`.

    Each field declares the instrument it reads (see
    :class:`~repro.obs.metrics.StatsInstruments`): counters labeled
    ``component="engine"``, and the ``repro_stage_seconds`` histograms
    whose sums are the ``*_seconds`` fields.  ``engine.stats`` takes a
    snapshot atomically; run JSON, checkpoints and the table footers
    consume it.

    The accounting invariant — checked by the test suite — is::

        calls_issued + calls_saved == requested
        calls_saved == dedup_saved + cache_hits
    """

    #: Predictions requested through any engine entry point (one per mask
    #: row / pair, before any deduplication).
    requested: int = stat(
        "repro_engine_requests_total",
        "Predictions requested through any engine entry point",
    )
    calls_issued: int = stat(
        "repro_engine_calls_issued_total",
        "Predictions actually forwarded to the matcher",
    )
    dedup_saved: int = stat(
        "repro_engine_dedup_saved_total",
        "Requests answered by an identical request in the same batch",
    )
    cache_hits: int = stat(
        "repro_engine_cache_hits_total",
        "Unique requests answered from the LRU cache",
    )
    #: Unique requests that missed the cache (cache enabled only).
    cache_misses: int = stat(
        "repro_engine_cache_misses_total",
        "Unique requests that missed the cache",
    )
    batches: int = stat(
        "repro_engine_batches_total",
        "Chunks sent to the matcher's predict_proba_columnar",
    )
    #: Wall time spent rebuilding pairs from masks.
    rebuild_seconds: float = stat(
        "repro_stage_seconds", "Wall time per pipeline stage",
        HISTOGRAM, view="sum", stage="rebuild",
    )
    #: Wall time spent inside the matcher.
    predict_seconds: float = stat(
        "repro_stage_seconds", "Wall time per pipeline stage",
        HISTOGRAM, view="sum", stage="predict",
    )
    #: Matcher-guard counters, declared by :class:`GuardStats`: retried
    #: attempts, timed-out attempts, failed attempts, circuit-breaker
    #: trips, fast-failed calls while open, and half-open recoveries.
    guard_retries: int = same_stat(GuardStats, "guard_retries")
    guard_timeouts: int = same_stat(GuardStats, "guard_timeouts")
    guard_failures: int = same_stat(GuardStats, "guard_failures")
    guard_trips: int = same_stat(GuardStats, "guard_trips")
    guard_fast_failures: int = same_stat(GuardStats, "guard_fast_failures")
    guard_recoveries: int = same_stat(GuardStats, "guard_recoveries")

    #: Batch-shape observability: exported, but not part of the
    #: snapshot (so checkpoints and the accounting invariant ignore it).
    registry_only: ClassVar[tuple[Metric, ...]] = (
        Metric(
            "repro_engine_cache_entries",
            "Entries currently held by the prediction LRU cache",
            GAUGE, attr="cache_entries",
        ),
        Metric(
            "repro_engine_batch_width",
            "Rows per matcher batch actually issued",
            HISTOGRAM, attr="batch_width", buckets=ROW_BUCKETS,
        ),
    )

    @property
    def calls_saved(self) -> int:
        """Requests answered without a matcher call."""
        return self.requested - self.calls_issued

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over unique (post-dedup) lookups."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def savings_factor(self) -> float:
        """Requested / issued — "1.8x fewer matcher calls" reads from here."""
        return self.requested / self.calls_issued if self.calls_issued else 1.0

    def as_dict(self) -> dict[str, float]:
        """Raw counters plus derived ratios, JSON-friendly."""
        payload: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["calls_saved"] = self.calls_saved
        payload["hit_rate"] = round(self.hit_rate, 4)
        payload["savings_factor"] = round(self.savings_factor, 4)
        return payload

    @classmethod
    def from_counters(cls, payload: dict[str, float]) -> "EngineStats":
        """Rebuild from :meth:`as_dict` output (derived fields ignored).

        Counters absent from *payload* (results written before the field
        existed) keep their zero defaults.
        """
        return cls(
            **{f.name: payload[f.name] for f in fields(cls)
               if f.name in payload}
        )

    def add(self, other: "EngineStats") -> "EngineStats":
        """Accumulate *other*'s counters into self (for run aggregation)."""
        for f in fields(self):
            name = f.name
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def summary(self) -> str:
        """One log-friendly line."""
        text = (
            f"prediction engine: {self.requested} requested, "
            f"{self.calls_issued} issued, {self.calls_saved} saved "
            f"({self.savings_factor:.2f}x; dedup {self.dedup_saved}, "
            f"cache hits {self.cache_hits}, hit rate {self.hit_rate:.2f}) "
            f"in {self.batches} batches, "
            f"rebuild {self.rebuild_seconds:.2f}s, "
            f"predict {self.predict_seconds:.2f}s"
        )
        if self.guard_failures or self.guard_fast_failures:
            text += (
                f"; guard: {self.guard_retries} retries, "
                f"{self.guard_timeouts} timeouts, "
                f"{self.guard_trips} trips, "
                f"{self.guard_fast_failures} fast-failed, "
                f"{self.guard_recoveries} recoveries"
            )
        return text


#: Cache key of one batch row: schema attributes + both value tuples.
#: Rows with equal keys receive equal probabilities from every matcher
#: in this library (they see only attribute values), so the key is sound
#: across explanation methods.
PairKey = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


class _EngineMatcher(EntityMatcher):
    """An :class:`EntityMatcher` view of an engine.

    Evaluation stages (token-removal trials, interest flips, deletion
    curves) accept a matcher; handing them this adapter routes their
    predictions through the shared dedup + cache layer, so e.g. the
    token-removal trials — identical across method columns by protocol —
    are only paid for once.
    """

    def __init__(self, engine: "PredictionEngine") -> None:
        self.engine = engine

    def fit(self, dataset: EMDataset) -> "EntityMatcher":
        self.engine.matcher.fit(dataset)
        self.engine.cache_clear()
        return self

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        return self.engine.predict_pairs(pairs)

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        return self.engine.predict_columnar(batch)


class PredictionEngine:
    """Deduplicating, caching, chunking front-end to one matcher.

    *matcher* is anything ``predict_proba``-shaped: a live
    :class:`EntityMatcher`, a duck-typed test double, or a
    :class:`~repro.backends.client.RemoteBackend` whose model runs in
    another process — the dedup/cache/chunking layers cannot tell them
    apart.  Chunks are ``config.batch_size`` rows wide; a remote client
    splits them further to its server's advertised maximum.

    The engine is **thread-safe**: the serving layer's worker pool shares
    one engine so matcher-call dedup spans concurrent requests.  A single
    internal lock protects the stats counters and the LRU cache; the
    matcher itself is called *outside* the lock, so concurrent callers can
    race to compute the same key — both get identical values (every
    matcher here is deterministic), the only cost being an occasional
    duplicated call.  The accounting invariant holds under any
    interleaving.
    """

    def __init__(
        self,
        matcher,
        config: EngineConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._score = columnar_scorer(matcher)
        self.matcher = matcher
        self.config = config or EngineConfig()
        # *metrics* is the registry this engine's instruments live in —
        # pass the service's (or runner's) registry to surface engine
        # accounting on its /metrics endpoint and metrics.json.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._instruments = StatsInstruments(
            self.metrics, EngineStats, "engine"
        )
        # Bound under the engine's labels, the guard's counters are the
        # engine's guard_* instruments: same registry, same run JSON.
        self.guard = MatcherGuard(
            config=self.config.guard,
            instruments=StatsInstruments(
                self.metrics, GuardStats, **self._instruments.labels
            ),
        )
        self._cache: OrderedDict[PairKey, float] = OrderedDict()
        # Protects the LRU cache; counters live in the metrics registry
        # and are synchronized by its own lock.
        self._lock = threading.Lock()

    @property
    def stats(self) -> EngineStats:
        """An atomic :class:`EngineStats` snapshot of this engine.

        Taken under the registry lock, so the returned counters all
        belong to one generation even while workers are mid-request.
        """
        return self._instruments.snapshot()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def predict_pairs(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Probabilities for *pairs*, deduplicated and cached by content.

        The pairs travel as one :func:`~repro.core.columnar.pairs_batch`
        (they must share a schema).
        """
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return self.predict_columnar(pairs_batch(pairs))

    def predict_instance(
        self, instance: GeneratedInstance, masks: np.ndarray
    ) -> np.ndarray:
        """Probabilities for every perturbation mask of one instance.

        The mask matrix is applied as one columnar rebuild
        (:func:`~repro.core.columnar.landmark_batch`); its rows are then
        deduplicated by the content of the rebuilt pair — identical rows,
        and rows that differ only on tokens whose removal does not change
        the rebuilt value (duplicate words, already-covered injections),
        cost one prediction — and miss sets reach the matcher as columnar
        batches (see :meth:`predict_columnar`).
        """
        masks = np.asarray(masks)
        n_masks = masks.shape[0]
        self._instruments.requested.inc(n_masks)
        if n_masks == 0:
            return np.empty(0, dtype=np.float64)
        started = time.perf_counter()
        with trace.span("reconstruction", n_masks=n_masks):
            batch = landmark_batch(instance, masks)
        self._instruments.rebuild_seconds.observe(time.perf_counter() - started)
        return self._resolve(batch)

    def predict_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        """Probabilities for a columnar perturbation batch.

        Every entry point ends here: rows are keyed by content (a
        :data:`PairKey`, so the cache interoperates across methods),
        deduplicated, and miss sets go to the backend's
        ``predict_proba_columnar`` (the matcher decides whether to
        materialize them as pairs).
        """
        n_rows = batch.n_rows
        self._instruments.requested.inc(n_rows)
        if n_rows == 0:
            return np.empty(0, dtype=np.float64)
        return self._resolve(batch)

    def predict_one(self, pair: RecordPair) -> float:
        """Cached probability of a single pair."""
        return float(self.predict_columnar(pairs_batch([pair]))[0])

    def as_matcher(self) -> EntityMatcher:
        """This engine wrapped in the :class:`EntityMatcher` interface."""
        return _EngineMatcher(self)

    def cache_clear(self) -> None:
        with self._lock:
            self._cache.clear()
        self._instruments.cache_entries.set(0)

    def reset_stats(self) -> EngineStats:
        """Return the accumulated stats and zero the counters atomically."""
        return self._instruments.drain()

    @property
    def cache_len(self) -> int:
        with self._lock:
            return len(self._cache)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve(self, batch: ColumnarPairBatch) -> np.ndarray:
        """Answer a batch from the cache, then the matcher (requested
        already counted).

        Rows are grouped by content in first-seen order; the first row
        of every group that misses the cache rides one sub-batch to the
        matcher.
        """
        instruments = self._instruments
        grouped: dict[PairKey, list[int]] = {}
        keys = zip(
            repeat(batch.schema.attributes),
            batch.value_rows("left"),
            batch.value_rows("right"),
        )
        for index, key in enumerate(keys):
            grouped.setdefault(key, []).append(index)
        n_requests = batch.n_rows
        out = np.empty(n_requests, dtype=np.float64)
        miss_keys: list[PairKey] = []
        miss_slots: list[list[int]] = []
        hits = 0
        with self._lock:
            for key, indices in grouped.items():
                cached = self._cache_get(key)
                if cached is not None:
                    hits += 1
                    out[indices] = cached
                    continue
                miss_keys.append(key)
                miss_slots.append(indices)
        # One registry-lock hold for the whole accounting batch.
        self.metrics.bulk([
            (instruments.dedup_saved, n_requests - len(grouped)),
            (instruments.cache_hits, hits),
            (instruments.calls_issued, len(miss_keys)),
            (instruments.cache_misses, len(miss_keys)),
        ])
        if miss_keys:
            # Misses are predicted outside the lock; concurrent callers
            # may race to compute the same key, but matchers are
            # deterministic so both writers cache the same value.
            probabilities = self._execute(
                batch.take([slots[0] for slots in miss_slots])
            )
            with self._lock:
                for key, indices, probability in zip(
                    miss_keys, miss_slots, probabilities
                ):
                    out[indices] = probability
                    self._cache_put(key, float(probability))
                size = len(self._cache)
            instruments.cache_entries.set(size)
        return out

    def _execute(self, batch: ColumnarPairBatch) -> np.ndarray:
        """Chunked, guarded matcher execution, one chunk after another.

        The guard polls the ambient request scope (:func:`repro.core.
        deadline.checkpoint`) before every chunk: a request whose
        deadline passed or whose waiters cancelled aborts at the next
        chunk boundary instead of paying for the rest of the batch.  The
        poll is a no-op outside a serving scope and never changes
        results.
        """
        n_rows = batch.n_rows
        chunk_size = self.config.batch_size
        instruments = self._instruments
        score = self._score
        started = time.perf_counter()
        results: list[np.ndarray] = []
        n_batches = -(-n_rows // chunk_size)
        with trace.span("prediction", n_pairs=n_rows, n_batches=n_batches):
            for start in range(0, n_rows, chunk_size):
                stop = min(start + chunk_size, n_rows)
                instruments.batches.inc()
                instruments.batch_width.observe(stop - start)
                result = self.guard.call(
                    score, batch.slice_rows(start, stop), stop - start
                )
                if np.shape(result) != (stop - start,):
                    raise ExplanationError(
                        f"matcher returned probabilities of shape "
                        f"{np.shape(result)} for {stop - start} rows; "
                        f"expected ({stop - start},)"
                    )
                results.append(np.asarray(result, dtype=np.float64))
        instruments.predict_seconds.observe(time.perf_counter() - started)
        if len(results) == 1:
            return results[0]
        return np.concatenate(results)

    def _cache_get(self, key: PairKey) -> float | None:
        # Caller holds self._lock (move_to_end mutates the OrderedDict).
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
        return value

    def _cache_put(self, key: PairKey, value: float) -> None:
        # Caller holds self._lock.
        cache = self._cache
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.config.cache_size:
            cache.popitem(last=False)
