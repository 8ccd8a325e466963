"""The long-running explanation service.

:class:`ExplanationService` turns the one-shot explanation pipeline into a
serving path:

1. :meth:`~ExplanationService.submit` computes the request's
   content-addressed key (matcher fingerprint + record digest + method +
   explainer config) and answers **store hits** immediately from the
   persistent :class:`~repro.service.store.ExplanationStore`;
2. duplicate **in-flight** requests are *coalesced* onto the same future —
   one computation, many waiters;
3. everything else is dispatched over a bounded priority queue to a pool
   of worker threads that share **one** guarded
   :class:`~repro.core.engine.PredictionEngine`, so matcher-call dedup and
   the prediction cache span concurrent requests.

Request lifecycle
-----------------
Every queued request rides a *ticket* that carries its admission time, a
:class:`~repro.core.deadline.Deadline` and a
:class:`~repro.core.deadline.CancelToken`:

* **admission control** — when the queue is deeper than
  ``ServiceConfig.shed_threshold`` or the estimated queue wait exceeds
  ``max_queue_wait``, :meth:`submit` sheds the request with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429 +
  ``Retry-After``) instead of letting it wait unboundedly;
* **deadlines** — a worker installs the ticket's deadline as the ambient
  request scope, so the prediction engine aborts between matcher chunks
  with :class:`~repro.exceptions.DeadlineExceededError` once it passes
  (and an already-expired ticket is dropped before computing at all);
* **cancellation** — :meth:`cancel` detaches one waiter; when the last
  waiter leaves, the token fires and the ticket is skipped (queued) or
  aborted at the next chunk boundary (computing).  Coalesced waiters
  are independent: one impatient caller never kills the others.
* **drain shutdown** — :meth:`close` stops admission and finishes queued
  work within ``drain_timeout`` seconds; work still pending when the
  budget expires is cancelled, the store is flushed, and a drain summary
  is returned.

Scheduling never changes results: a service-path explanation is
bit-identical to the direct :class:`~repro.core.landmark.LandmarkExplainer`
API for the same pair, seed and config (enforced by
``tests/service/test_service.py`` and
``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import itertools
import math
import queue
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.config import ServiceConfig
from repro.core.deadline import CancelToken, Deadline, request_scope
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest, dual_to_dict, matcher_fingerprint
from repro.exceptions import (
    DeadlineExceededError,
    RequestCancelledError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.explainers.lime_text import LimeConfig
from repro.matchers.base import EntityMatcher
from repro.obs.metrics import (
    GAUGE,
    HISTOGRAM,
    Metric,
    MetricsRegistry,
    StatsInstruments,
    stat,
)
from repro.service.request import ExplainRequest, request_key
from repro.service.store import ExplanationStore

#: Format version of result payloads produced by the service.
RESULT_FORMAT_VERSION = 1

#: Queue priority of the shutdown sentinel — drains after all real work.
_SHUTDOWN_PRIORITY = float("inf")

#: Seconds :meth:`ExplanationService.close` waits for workers to exit
#: after its budget expired and it cancelled their tickets.  A worker
#: still alive then is wedged (say, in a matcher call that never returns):
#: close() answers its waiters and stops waiting for it.
_DRAIN_GRACE_SECONDS = 2.0

#: Weight of the newest sample in the queue-wait latency estimate.
_LATENCY_EMA_ALPHA = 0.2

#: Upper bound of any queue-wait estimate / Retry-After hint (seconds).
#: The estimate is advice for clients, not a promise — during the
#: zero-live-workers window (drain, shard restart) the raw formula is
#: undefined, and an unclamped estimate would tell clients to go away
#: for hours over a restart that takes seconds.
MAX_WAIT_ESTIMATE = 60.0


def build_landmark_explainer(
    matcher: EntityMatcher,
    engine: PredictionEngine,
    request: ExplainRequest,
) -> LandmarkExplainer:
    """A per-request explanation pipeline sharing a long-lived engine.

    One definition serves both workload shapes — the online service's
    worker threads and the bulk runner's chunk loop — so the two paths
    cannot drift in explainer construction (and therefore in weights).
    """
    if request.explainer == "shap":
        from repro.explainers.kernel_shap import KernelShapExplainer

        return LandmarkExplainer(
            matcher,
            explainer=KernelShapExplainer(
                n_samples=request.samples, seed=request.seed
            ),
            seed=request.seed,
            engine=engine,
        )
    return LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=request.samples, seed=request.seed),
        seed=request.seed,
        engine=engine,
    )


def compute_explanation_payload(
    matcher: EntityMatcher,
    engine: PredictionEngine,
    fingerprint: str,
    key: str,
    request: ExplainRequest,
) -> dict:
    """Compute one request's result payload (the stored/served shape).

    This is THE explanation computation — the service's workers and the
    bulk runner both call it, so a bulk-path payload is bit-identical to
    the service-path payload for the same request and matcher.
    """
    explainer = build_landmark_explainer(matcher, engine, request)
    duals: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for generation in request.generations():
        dual = explainer.explain(request.pair, generation=generation)
        duals[generation] = dual_to_dict(dual)
        digests[generation] = dual_digest(dual)
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "key": key,
        "matcher_fingerprint": fingerprint,
        "pair_id": request.pair.pair_id,
        "method": request.method,
        "samples": request.samples,
        "explainer": request.explainer,
        "seed": request.seed,
        "duals": duals,
        "digests": digests,
    }


def estimate_queue_wait(pending: int, latency_ema: float, workers: int) -> float:
    """The ``pending × EMA / workers`` wait estimate, made total.

    Guards the windows where the raw formula divides by zero or returns
    nonsense: *workers* can be ``0`` while a drain or a shard restart has
    no live worker (the estimate saturates at :data:`MAX_WAIT_ESTIMATE`
    instead of raising), *pending* can race negative around ticket
    completion, and *latency_ema* can be non-finite after a pathological
    sample.  Every path returns a finite value in
    ``[0, MAX_WAIT_ESTIMATE]``.
    """
    pending = max(0, pending)
    if not math.isfinite(latency_ema) or latency_ema < 0.0:
        latency_ema = 0.0
    if pending == 0 or latency_ema == 0.0:
        return 0.0
    if workers <= 0:
        return MAX_WAIT_ESTIMATE
    return min(MAX_WAIT_ESTIMATE, pending * latency_ema / workers)


def retry_after_hint(estimated_wait: float) -> float:
    """The Retry-After seconds advertised for *estimated_wait*.

    Half the estimated wait (retrying into a half-drained queue beats
    retrying into a still-full one), floored at 0.1 s so clients do not
    busy-spin, ceilinged at :data:`MAX_WAIT_ESTIMATE`, and 1.0 s when no
    latency sample exists yet.
    """
    if not math.isfinite(estimated_wait) or estimated_wait <= 0.0:
        return 1.0
    return min(MAX_WAIT_ESTIMATE, max(0.1, estimated_wait / 2.0))


#: The request-latency histogram: its count, sum and max are the
#: ``computed`` / ``latency_seconds`` / ``latency_max`` fields, so a
#: worker finishing a computation moves them together.
_REQUEST_SECONDS = Metric(
    "repro_service_request_seconds",
    "Wall time of completed explanation computations",
    HISTOGRAM, attr="request_seconds",
)
_QUEUE_WAIT_SECONDS = Metric(
    "repro_service_queue_wait_seconds",
    "Time tickets spent queued before a worker picked them up",
    HISTOGRAM, attr="queue_wait_seconds",
)


@dataclass
class ServiceStats:
    """Counter snapshot of one :class:`ExplanationService`.

    Each field declares the instrument it reads, labeled
    ``component="service"``; ``service.stats`` reads them into this plain
    dataclass atomically.
    """

    requests: int = stat(
        "repro_service_requests_total",
        "Requests accepted by ExplanationService.submit",
    )
    store_hits: int = stat(
        "repro_service_store_hits_total",
        "Requests answered from the persistent store",
    )
    coalesced: int = stat(
        "repro_service_coalesced_total",
        "Requests coalesced onto an in-flight computation",
    )
    #: Requests actually computed by a worker.
    computed: int = _REQUEST_SECONDS.field("count")
    #: Computations that raised (the error propagates to every waiter).
    errors: int = stat(
        "repro_service_errors_total", "Computations that raised",
    )
    rejected: int = stat(
        "repro_service_rejected_total",
        "Non-blocking submissions rejected on a full queue",
    )
    #: Submissions shed by admission control (queue depth / wait bound).
    shed: int = stat(
        "repro_service_shed_total", "Submissions shed by admission control",
    )
    cancelled: int = stat(
        "repro_service_cancelled_total",
        "Tickets dropped because every waiter cancelled",
    )
    #: Tickets that blew their deadline (before or during computation).
    deadline_exceeded: int = stat(
        "repro_service_deadline_exceeded_total",
        "Tickets that blew their deadline",
    )
    queue_peak: int = stat(
        "repro_service_queue_peak",
        "Highest queue depth observed at submission time",
        GAUGE,
    )
    #: Total and worst-case wall time of completed computations.
    latency_seconds: float = _REQUEST_SECONDS.field("sum")
    latency_max: float = _REQUEST_SECONDS.field("max")
    #: Total and worst-case time tickets spent queued before a worker
    #: picked them up (sheds excluded — they never enter the queue).
    queue_wait_seconds: float = _QUEUE_WAIT_SECONDS.field("sum")
    queue_wait_max: float = _QUEUE_WAIT_SECONDS.field("max")

    #: Exported, but not part of the snapshot.
    registry_only: ClassVar[tuple[Metric, ...]] = (
        Metric(
            "repro_service_queue_depth",
            "Work items pending on the service queue",
            GAUGE, attr="queue_depth",
        ),
    )

    @property
    def served_without_compute(self) -> int:
        """Requests that never reached the matcher."""
        return self.store_hits + self.coalesced

    @property
    def latency_mean(self) -> float:
        return self.latency_seconds / self.computed if self.computed else 0.0

    def as_dict(self) -> dict[str, float]:
        payload: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["served_without_compute"] = self.served_without_compute
        payload["latency_mean"] = round(self.latency_mean, 6)
        return payload

    def summary(self) -> str:
        """One log-friendly line."""
        text = (
            f"explanation service: {self.requests} requests, "
            f"{self.store_hits} store hits, {self.coalesced} coalesced, "
            f"{self.computed} computed, {self.errors} errors "
            f"(mean latency {self.latency_mean:.3f}s, "
            f"max {self.latency_max:.3f}s, queue peak {self.queue_peak})"
        )
        if self.shed or self.cancelled or self.deadline_exceeded:
            text += (
                f"; lifecycle: {self.shed} shed, {self.cancelled} cancelled, "
                f"{self.deadline_exceeded} deadline-exceeded"
            )
        return text


@dataclass
class _Ticket:
    """One queued computation and its lifecycle state.

    ``waiters`` counts the futures handed out for this key (first submit
    plus coalesces); :meth:`ExplanationService.cancel` decrements it and
    only fires the token when the last waiter leaves.  All mutation of
    ``waiters`` happens under the service lock.
    """

    key: str
    request: ExplainRequest
    future: Future
    deadline: Deadline
    enqueued_at: float
    cancel: CancelToken = field(default_factory=CancelToken)
    waiters: int = 1


def _settle(
    future: Future, result: object = None, error: BaseException | None = None
) -> None:
    """Resolve *future*, unless close() already answered it.

    close() settles the futures of tickets whose worker is wedged; if that
    worker wakes up later, its own result or error is dropped here.
    """
    try:
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)
    except InvalidStateError:
        pass


def _remote_backend(matcher):
    """*matcher* if it is a :class:`~repro.backends.client.RemoteBackend`.

    Looked up in :data:`sys.modules`: an instance implies its module is
    loaded, so an in-process service never imports the socket client.
    """
    client = sys.modules.get("repro.backends.client")
    if client is not None and isinstance(matcher, client.RemoteBackend):
        return matcher
    return None


class ExplanationService:
    """Worker-pool front-end serving landmark explanations.

    *store* is optional — without one the service still coalesces and
    shares the prediction engine, it just cannot answer across restarts.
    *engine_config* configures the shared engine (including the
    :class:`~repro.core.guard.MatcherGuard` retry/timeout knobs).

    *matcher* may be a live :class:`EntityMatcher` or a
    :class:`~repro.backends.client.RemoteBackend` pointing at a
    ``serve-matcher`` process.  With a remote backend the request-key
    fingerprint comes from the handshake, so cache keys and store
    entries stay identical to a local deployment of the same weights.
    """

    def __init__(
        self,
        matcher: EntityMatcher,
        store: ExplanationStore | None = None,
        config: ServiceConfig | None = None,
        engine_config: EngineConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.matcher = matcher
        self.store = store
        self.config = config or ServiceConfig()
        # One registry for the whole serving stack: default to the
        # store's (so store counters appear on this service's /metrics
        # endpoint) and hand the same registry to the shared engine.
        if metrics is not None:
            self.metrics = metrics
        elif store is not None:
            self.metrics = store.metrics
        else:
            self.metrics = MetricsRegistry()
        self.engine = PredictionEngine(
            matcher, engine_config, metrics=self.metrics
        )
        # In-process the fingerprint is computed from the live object; a
        # remote backend pins the one its server advertised at handshake.
        self._remote = _remote_backend(matcher)
        if self._remote is None:
            self.fingerprint = matcher_fingerprint(matcher)
        else:
            self.fingerprint = self._remote.capabilities().fingerprint
        self._instruments = StatsInstruments(
            self.metrics, ServiceStats, "service"
        )
        self._queue: queue.PriorityQueue = queue.PriorityQueue(
            maxsize=self.config.queue_size
        )
        self._inflight: dict[str, _Ticket] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._closed = False
        # Set by close() when it returns with a worker still running.
        # That worker's late result must not reach the store: once
        # close() has returned, the owner may close the store (and open
        # the same file again), and a write on a closed connection would
        # quarantine the live database file.
        self._detached = False
        self._close_summary: dict | None = None
        # EMA of computation latency, feeding the estimated-wait shed
        # policy (updated by workers under the service lock).
        self._latency_ema = 0.0
        # Tickets admitted but not yet resolved (queued OR computing).
        # The wait estimate is built on this, not on raw queue depth: a
        # request behind one busy worker waits just as surely as one
        # behind a queued ticket.
        self._pending = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                daemon=True,
                name=f"explain-worker-{index}",
            )
            for index in range(self.config.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ExplainRequest,
        block: bool = True,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue *request*; returns a future resolving to its payload.

        Store hits resolve immediately; duplicate in-flight requests share
        one future.  When admission control is configured
        (``shed_threshold`` / ``max_queue_wait``) an overloaded queue
        sheds the request with
        :class:`~repro.exceptions.ServiceOverloadedError` before it is
        enqueued.  With ``block=False`` a full queue raises
        :class:`~repro.exceptions.ServiceOverloadedError` (counted as
        rejected) instead of applying backpressure.
        """
        if self._closed:
            raise ServiceError("explanation service is closed")
        key = request_key(self.fingerprint, request)
        instruments = self._instruments
        with self._lock:
            instruments.requests.inc()
            if self.store is not None:
                payload = self.store.get(key)
                if payload is not None:
                    instruments.store_hits.inc()
                    future: Future = Future()
                    future.set_result(payload)
                    return future
            if key in self._inflight:
                instruments.coalesced.inc()
                ticket = self._inflight[key]
                ticket.waiters += 1
                return ticket.future
            # Admission control: shed before committing queue capacity.
            # Store hits and coalesces never shed — they cost nothing.
            overload = self._overload_check()
            if overload is not None:
                instruments.shed.inc()
                raise overload
            ticket = _Ticket(
                key=key,
                request=request,
                future=Future(),
                deadline=Deadline.after(
                    request.deadline_seconds
                    if request.deadline_seconds is not None
                    else self.config.default_deadline
                ),
                enqueued_at=time.monotonic(),
            )
            self._inflight[key] = ticket
            self._pending += 1
        # Enqueue outside the lock: put() may block on a full queue, and
        # the workers' completion path needs the lock to make progress.
        item = (request.priority, next(self._seq), ticket)
        try:
            self._queue.put(item, block=block, timeout=timeout)
        except queue.Full:
            with self._lock:
                instruments.rejected.inc()
                self._inflight.pop(key, None)
                self._pending -= 1
                estimated = estimate_queue_wait(
                    self._pending, self._latency_ema, self.live_workers()
                )
            raise ServiceOverloadedError(
                f"service queue is full ({self.config.queue_size} pending)",
                retry_after=retry_after_hint(estimated),
            ) from None
        depth = self._queue.qsize()
        instruments.queue_depth.set(depth)
        instruments.queue_peak.set_max(depth)
        return ticket.future

    def explain(
        self, request: ExplainRequest, timeout: float | None = None
    ) -> dict:
        """Synchronous :meth:`submit` — returns the result payload.

        When ``result(timeout)`` expires, this waiter **cancels** its
        claim on the ticket before re-raising: an abandoned request whose
        other waiters (if any) also left is dropped by the workers
        instead of being computed at full cost for nobody.
        """
        future = self.submit(request)
        try:
            return future.result(timeout)
        except TimeoutError:
            self.cancel(request)
            raise

    def cancel(self, request_or_key: ExplainRequest | str) -> bool:
        """Detach one waiter from the in-flight ticket for this request.

        Returns ``True`` when this was the *last* waiter and the ticket
        is now cancelled: a queued ticket will be skipped by the workers,
        a computing one aborts at the next engine chunk boundary.  With
        other coalesced waiters still attached (or no matching in-flight
        ticket) it returns ``False`` and the computation proceeds.
        """
        if isinstance(request_or_key, str):
            key = request_or_key
        else:
            key = request_key(self.fingerprint, request_or_key)
        with self._lock:
            ticket = self._inflight.get(key)
            if ticket is None or ticket.waiters <= 0:
                return False
            ticket.waiters -= 1
            if ticket.waiters > 0:
                return False
        ticket.cancel.cancel()
        return True

    def key_for(self, request: ExplainRequest) -> str:
        """The content-addressed key this service assigns to *request*."""
        return request_key(self.fingerprint, request)

    def live_workers(self) -> int:
        """Worker threads currently able to pick up queued tickets.

        Equals ``config.n_workers`` in steady state but honestly reports
        the drain/shutdown window, where workers have already exited and
        the naive ``pending × EMA / n_workers`` estimate would promise
        service capacity that no longer exists.
        """
        return sum(1 for worker in self._workers if worker.is_alive())

    def queue_estimate(self) -> tuple[int, float]:
        """``(queue depth, estimated seconds of wait)`` right now.

        The wait estimate is ``pending × EMA(computation latency) /
        live workers`` — the same quantity the shed policy bounds — where
        *pending* counts every admitted-but-unfinished ticket, queued or
        already computing.  Guarded by :func:`estimate_queue_wait`: with
        zero live workers (drain in progress) it saturates at
        :data:`MAX_WAIT_ESTIMATE` instead of dividing by zero.
        """
        depth = self._queue.qsize()
        workers = self.live_workers()
        with self._lock:
            estimated = estimate_queue_wait(
                self._pending, self._latency_ema, workers
            )
        return depth, estimated

    @property
    def overloaded(self) -> bool:
        """Whether a compute submission arriving now would be shed."""
        with self._lock:
            return self._overload_check() is not None

    @property
    def closed(self) -> bool:
        """Whether the service stopped admitting requests (draining)."""
        return self._closed

    @property
    def stats(self) -> ServiceStats:
        """An atomic :class:`ServiceStats` snapshot of this service."""
        return self._instruments.snapshot()

    def stats_payload(self) -> dict:
        """Service + store + engine counters, run-JSON shaped.

        When every component records into this service's registry (the
        default wiring) all three snapshots are read under **one** lock
        hold, so the payload is a single consistent generation — a
        worker finishing mid-call can never make the engine counters
        disagree with the service ones.
        """
        bundles = [self._instruments, self.engine._instruments]
        if self.store is not None:
            bundles.append(self.store._instruments)
        if all(bundle.registry is self.metrics for bundle in bundles):
            reads = [bundle.instruments() for bundle in bundles]
            values = iter(self.metrics.read(*itertools.chain(*reads)))
            snapshots = [
                bundle.build([next(values) for _ in read])
                for bundle, read in zip(bundles, reads)
            ]
        else:  # split registries: three independently-atomic snapshots
            snapshots = [bundle.snapshot() for bundle in bundles]
        service_stats, engine_stats = snapshots[0], snapshots[1]
        store_stats = snapshots[2] if self.store is not None else None
        return {
            "matcher_fingerprint": self.fingerprint,
            "service": service_stats.as_dict(),
            "store": store_stats.as_dict() if store_stats else None,
            "engine": engine_stats.as_dict(),
        }

    def health(self) -> tuple[int, dict]:
        """``(http_status, payload)`` of this service's health right now.

        The payload always carries the matcher circuit-breaker state
        (``"breaker"``) and live-worker count, not just a boolean —
        aggregators (the shard supervisor, load balancers) distinguish
        "degraded" from "down".  Status is 503 while the service drains,
        the breaker is open, the matcher backend is unreachable, or
        admission control would shed.
        """
        depth, estimated_wait = self.queue_estimate()
        payload: dict = {
            "ok": True,
            "queue_depth": depth,
            "estimated_wait": round(estimated_wait, 3),
            "breaker": self.engine.guard.state,
            "workers": self.live_workers(),
        }
        if self._remote is not None:
            payload["backend"] = self._remote.health()
        if self.closed:
            degraded = "draining"
        elif payload["breaker"] == "open":
            degraded = "breaker_open"
        elif not payload.get("backend", {}).get("available", True):
            degraded = "backend_unavailable"
        elif self.overloaded:
            degraded = "overloaded"
        else:
            return 200, payload
        payload["ok"] = False
        payload["degraded"] = degraded
        return 503, payload

    def metrics_text(self) -> str:
        """This service's registry in Prometheus text exposition form."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self.metrics)

    def metrics_json(self) -> dict:
        """This service's registry as the ``metrics.json`` document."""
        from repro.obs.export import to_json

        return to_json(self.metrics)

    def close(
        self,
        wait: bool = True,
        drain: bool = True,
        drain_timeout: float | None = None,
    ) -> dict:
        """Stop admission and shut the workers down; returns a summary.

        With ``drain=True`` (the default) queued work keeps computing for
        up to ``drain_timeout`` seconds (``ServiceConfig.drain_timeout``
        when ``None``); whatever is still pending when the budget expires
        is cancelled so the workers exit promptly.  ``drain=False``
        cancels all pending tickets immediately.  Either way close()
        then waits at most :data:`_DRAIN_GRACE_SECONDS` for the workers:
        a worker still alive is wedged, every still-pending future of an
        unfinished ticket is answered with :class:`RequestCancelledError`,
        and close() returns without it; what it computes later is never
        written to the store.  The store is flushed either way.
        The summary dict reports ``pending_at_close``, ``cancelled``,
        ``drained`` (no work was cut short), ``wedged_workers`` and
        ``seconds``; calling :meth:`close` again returns the same
        summary.
        """
        started = time.monotonic()
        with self._lock:
            if self._closed:
                return dict(self._close_summary or {})
            self._closed = True
            pending = list(self._inflight.values())
        budget = (
            self.config.drain_timeout if drain_timeout is None else drain_timeout
        )
        if not drain:
            for ticket in pending:
                ticket.cancel.cancel()
        for _ in self._workers:
            self._queue.put((_SHUTDOWN_PRIORITY, next(self._seq), None))
        cancelled = 0
        wedged: list[threading.Thread] = []
        if wait:
            deadline = started + (budget if drain else 0.0)
            for worker in self._workers:
                worker.join(max(0.0, deadline - time.monotonic()))
            stragglers = [w for w in self._workers if w.is_alive()]
            if stragglers:
                # Budget exhausted: cancel everything still in flight
                # (computing tickets abort at the next chunk) and give
                # the workers a grace period to exit.
                with self._lock:
                    leftovers = list(self._inflight.values())
                for ticket in leftovers:
                    if not ticket.cancel.cancelled:
                        ticket.cancel.cancel()
                        cancelled += 1
                grace_end = time.monotonic() + _DRAIN_GRACE_SECONDS
                for worker in stragglers:
                    worker.join(max(0.0, grace_end - time.monotonic()))
                wedged = [w for w in stragglers if w.is_alive()]
            if wedged:
                # A wedged worker may never reach its next chunk, and no
                # worker will take what is still queued: answer every
                # waiter now.  A worker that wakes later finds its future
                # settled (see _settle) and leaves the store alone.
                with self._lock:
                    self._detached = True
                    leftovers = list(self._inflight.values())
                for ticket in leftovers:
                    _settle(
                        ticket.future,
                        error=RequestCancelledError(
                            "request cancelled: the service closed while "
                            "its worker was wedged"
                        ),
                    )
        if self.store is not None:
            self.store.flush()
        if self._remote is not None:
            self._remote.close()
        summary = {
            "pending_at_close": len(pending),
            "cancelled": cancelled if drain else len(pending),
            "drained": cancelled == 0 if drain else not pending,
            "wedged_workers": len(wedged),
            "seconds": round(time.monotonic() - started, 3),
        }
        with self._lock:
            self._close_summary = summary
        return dict(summary)

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _overload_check(self) -> ServiceOverloadedError | None:
        """The shed decision for one would-be computation (lock held)."""
        config = self.config
        if config.shed_threshold is None and config.max_queue_wait is None:
            return None
        depth = self._queue.qsize()
        # Pending counts queued AND computing tickets: a new request
        # behind a busy worker waits for it exactly as it would for a
        # queued ticket, so the estimate must see both.
        estimated = estimate_queue_wait(
            self._pending, self._latency_ema, self.live_workers()
        )
        retry_after = retry_after_hint(estimated)
        if config.shed_threshold is not None and depth >= config.shed_threshold:
            return ServiceOverloadedError(
                f"service overloaded: queue depth {depth} >= shed "
                f"threshold {config.shed_threshold}",
                retry_after=retry_after,
            )
        if (
            config.max_queue_wait is not None
            and estimated > config.max_queue_wait
        ):
            return ServiceOverloadedError(
                f"service overloaded: estimated wait "
                f"{estimated:.2f}s > {config.max_queue_wait:.2f}s",
                retry_after=retry_after,
            )
        return None

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            _, _, ticket = self._queue.get()
            if ticket is None:
                return
            self._run_ticket(ticket)

    def _run_ticket(self, ticket: _Ticket) -> None:
        instruments = self._instruments
        waited = time.monotonic() - ticket.enqueued_at
        self.metrics.bulk(
            (
                (instruments.queue_wait_seconds, waited),
                (instruments.queue_depth, self._queue.qsize()),
            )
        )
        # Skip tickets nobody waits for / that already blew their budget
        # BEFORE paying for any computation.
        if ticket.cancel.cancelled:
            self._fail_ticket(
                ticket,
                RequestCancelledError(
                    "request dropped: every waiter cancelled while it "
                    "was queued"
                ),
            )
            return
        if ticket.deadline.expired():
            self._fail_ticket(
                ticket,
                DeadlineExceededError(
                    f"request spent {waited:.3f}s queued and its deadline "
                    f"passed before computation started"
                ),
            )
            return
        started = time.perf_counter()
        try:
            with request_scope(ticket.deadline, ticket.cancel):
                payload = self._compute(ticket.key, ticket.request)
        except BaseException as error:  # noqa: BLE001 - relayed to waiters
            self._fail_ticket(ticket, error)
            return
        elapsed = time.perf_counter() - started
        with self._lock:
            # Store before un-registering the in-flight ticket: a
            # concurrent submit always finds the result in exactly one
            # of the two places.  A detached worker's result is dropped
            # (see close()).
            if self.store is not None and not self._detached:
                self.store.put(ticket.key, payload)
            self._inflight.pop(ticket.key, None)
            self._pending -= 1
            ema = self._latency_ema
            self._latency_ema = (
                elapsed
                if ema == 0.0
                else (1 - _LATENCY_EMA_ALPHA) * ema + _LATENCY_EMA_ALPHA * elapsed
            )
        # One registry-lock hold: the latency histogram backs the
        # computed/latency counters, the gauge tracks drain.
        self.metrics.bulk(
            (
                (instruments.request_seconds, elapsed),
                (instruments.queue_depth, self._queue.qsize()),
            )
        )
        _settle(ticket.future, result=payload)

    def _fail_ticket(self, ticket: _Ticket, error: BaseException) -> None:
        """Relay *error* to the ticket's waiters, with typed accounting."""
        instruments = self._instruments
        with self._lock:
            self._inflight.pop(ticket.key, None)
            self._pending -= 1
        if isinstance(error, RequestCancelledError):
            instruments.cancelled.inc()
        elif isinstance(error, DeadlineExceededError):
            instruments.deadline_exceeded.inc()
        else:
            instruments.errors.inc()
        _settle(ticket.future, error=error)

    def _compute(self, key: str, request: ExplainRequest) -> dict:
        return compute_explanation_payload(
            self.matcher, self.engine, self.fingerprint, key, request
        )


def duals_from_result(payload: dict):
    """Rebuild the :class:`~repro.core.explanation.DualExplanation` objects
    inside a service result payload, keyed by generation mode."""
    from repro.core.serialize import dual_from_dict

    version = payload.get("format_version")
    if version != RESULT_FORMAT_VERSION:
        raise ServiceError(
            f"unsupported service result format version {version!r}; "
            f"expected {RESULT_FORMAT_VERSION}"
        )
    return {
        generation: dual_from_dict(dual_payload)
        for generation, dual_payload in payload["duals"].items()
    }
