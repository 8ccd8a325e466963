"""Per-layer timing for traced harness runs.

The harness times the program's layers from outside, without touching
``src/``: :class:`Tracer` replaces public functions at the sites that call
them (``repro.core.engine.landmark_batch``, ``ExplanationStore.get``, ...)
with wrappers that add each call's wall time, count and row count to
per-layer totals.  A wrapped call made while another wrapped call runs on
the same thread is that call's child; its time is subtracted from the
parent to give the parent's self time.

Nothing is installed in an untraced run, so end-to-end metrics never pay
for tracing.  A traced run measures its first half untraced and its
second half traced; the ratio of the two is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field


def _batch_rows(args, result) -> int:
    return args[1].n_rows  # (self, batch)


def _result_rows(args, result) -> int:
    return result.n_rows


#: ``(layer, "module" or "module:Class", attribute, rows)`` — every call
#: site a traced run wraps.  ``rows`` maps ``(args, result)`` to the
#: number of rows the call handled, or is ``None``.
SITES = (
    ("perturbation.sample_masks", "repro.explainers.lime_text",
     "sample_masks", None),
    ("generation.generate", "repro.core.generation:LandmarkGenerator",
     "generate", None),
    ("columnar.landmark_batch", "repro.core.engine", "landmark_batch",
     _result_rows),
    ("features.transform_columnar",
     "repro.matchers.features:PairFeatureExtractor", "transform_columnar",
     _batch_rows),
    ("matchers.predict_proba_columnar",
     "repro.matchers.logistic:LogisticRegressionMatcher",
     "predict_proba_columnar", _batch_rows),
    ("surrogate.fit", "repro.surrogate.linear_model:WeightedRidge", "fit",
     None),
    ("surrogate.fit", "repro.surrogate.linear_model:WeightedRidge", "score",
     None),
    ("surrogate.fit", "repro.explainers.lime_text",
     "cosine_distance_to_ones", None),
    ("surrogate.fit", "repro.explainers.lime_text", "exponential_kernel",
     None),
    ("serialize.dual_to_dict", "repro.service.service", "dual_to_dict", None),
    ("serialize.dual_digest", "repro.service.service", "dual_digest", None),
    ("request.request_key", "repro.service.request", "request_key", None),
    ("request.request_key", "repro.service.service", "request_key", None),
    ("request.request_key", "repro.bulk.job", "request_key", None),
    ("request.request_key", "repro.service.supervisor", "request_key", None),
    ("store.get", "repro.service.store:ExplanationStore", "get", None),
    ("store.put", "repro.service.store:ExplanationStore", "put", None),
    ("store.get_many", "repro.service.store:ExplanationStore", "get_many",
     None),
    ("store.put_many", "repro.service.store:ExplanationStore", "put_many",
     None),
    ("server.handle_payload", "repro.service.server", "handle_payload", None),
    ("bulk.chunk", "repro.bulk.job:BulkJob", "_run_chunk", None),
    ("summarize.add_result_payload", "repro.core.summarize:GlobalSummary",
     "add_result_payload", None),
    ("persistence.journal_append",
     "repro.evaluation.persistence:JournalWriter", "append", None),
)


@dataclass
class LayerTotal:
    """What one layer did while the tracer was installed."""

    busy_s: float = 0.0
    child_s: float = 0.0
    calls: int = 0
    rows: int = 0
    #: Per-call durations, kept only for layers the tracer samples.
    durations: list[float] | None = None

    def as_dict(self) -> dict:
        payload = {
            "busy_s": self.busy_s,
            "self_s": self.busy_s - self.child_s,
            "calls": self.calls,
            "rows": self.rows,
        }
        if self.durations is not None:
            payload["durations"] = list(self.durations)
        return payload


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@dataclass
class Tracer:
    """Wraps :data:`SITES` (or *sites*) and totals time per layer.

    ``sampled`` names layers whose individual call durations are kept
    (for percentiles); every other layer keeps only totals.
    """

    sites: tuple = SITES
    sampled: frozenset = frozenset()
    totals: dict[str, LayerTotal] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # Import every site now, so installing mid-run costs no import time.
        self._targets = []
        for layer, target, attribute, rows in self.sites:
            owner = _resolve(target)
            # Wrap methods where they are defined, so uninstall restores
            # exactly what was there.
            original = (
                vars(owner)[attribute] if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            self._targets.append((layer, owner, attribute, original, rows))

    def install(self) -> None:
        """Wrap every site; idempotent while installed."""
        if self._patches:
            return
        for layer, owner, attribute, original, rows in self._targets:
            setattr(owner, attribute, self._wrap(layer, original, rows))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {name: total.as_dict() for name, total in self.totals.items()}

    def _wrap(self, layer: str, original, rows):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._record(layer, started, 0)
                raise
            tracer._record(layer, started, rows(args, result) if rows else 0)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, started: float, rows: int) -> None:
        elapsed = time.perf_counter() - started
        stack = self._local.stack
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            total = self.totals.get(layer)
            if total is None:
                total = self.totals[layer] = LayerTotal(
                    durations=[] if layer in self.sampled else None
                )
            total.busy_s += elapsed
            total.child_s += child
            total.calls += 1
            total.rows += rows
            if total.durations is not None:
                total.durations.append(elapsed)


def counter_delta(after: dict, before: dict | None) -> dict:
    """``after - before`` for every numeric field (``before`` may be None)."""
    before = before or {}
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def counter_sum(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    layers: dict[str, dict],
    wall_s: float,
    ops: int,
    engine: dict | None = None,
    store: dict | None = None,
    service: dict | None = None,
    router: dict | None = None,
    shards: dict | None = None,
    extra: dict | None = None,
) -> dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for one traced phase.

    *layers* is a :meth:`Tracer.snapshot`; *wall_s* and *ops* are the
    traced phase's wall time and completed operations.  The counter
    dicts are deltas over the same phase, read from the registries the
    program already exports (``stats_payload()``).  A layer a workload
    never calls reads 0.
    """

    def layer(name: str, key: str = "busy_s") -> float:
        return layers.get(name, {}).get(key, 0)

    def share(name: str, key: str = "busy_s") -> float:
        return _ratio(layer(name, key), wall_s)

    def per_op(name: str, key: str) -> float:
        return _ratio(layer(name, key), ops)

    engine, store = engine or {}, store or {}
    service, router, shards = service or {}, router or {}, shards or {}
    metrics = {
        "perturbation.sample_masks.share": share("perturbation.sample_masks"),
        "perturbation.sample_masks.calls_per_op": per_op(
            "perturbation.sample_masks", "calls"
        ),
        "generation.generate.share": share("generation.generate"),
        "columnar.landmark_batch.share": share("columnar.landmark_batch"),
        "columnar.landmark_batch.rows_per_op": per_op(
            "columnar.landmark_batch", "rows"
        ),
        "features.transform_columnar.share": share(
            "features.transform_columnar"
        ),
        "features.transform_columnar.rows_per_op": per_op(
            "features.transform_columnar", "rows"
        ),
        "matchers.predict_proba_columnar.self_share": share(
            "matchers.predict_proba_columnar", "self_s"
        ),
        "surrogate.fit.share": share("surrogate.fit"),
        "serialize.dual_to_dict.share": share("serialize.dual_to_dict"),
        "serialize.dual_digest.share": share("serialize.dual_digest"),
        "request.request_key.share": share("request.request_key"),
        "store.hit_ratio": _ratio(
            store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)
        ),
        "engine.issued_ratio": _ratio(
            engine.get("calls_issued", 0), engine.get("requested", 0)
        ),
        "engine.cache_hit_ratio": _ratio(
            engine.get("cache_hits", 0),
            engine.get("cache_hits", 0) + engine.get("cache_misses", 0),
        ),
        "engine.rows_per_batch": _ratio(
            engine.get("calls_issued", 0), engine.get("batches", 0)
        ),
        "service.queue_wait.share": _ratio(
            service.get("queue_wait_seconds", 0), wall_s
        ),
        "service.request.share": _ratio(
            service.get("latency_seconds", 0), wall_s
        ),
        "server.handle_payload.share": share("server.handle_payload"),
        "bulk.chunk.share": share("bulk.chunk"),
        "summarize.add_result_payload.share": share(
            "summarize.add_result_payload"
        ),
        "persistence.journal_append.share": share("persistence.journal_append"),
        "router.requests_per_op": _ratio(router.get("requests", 0), ops),
        "router.failover_ratio": _ratio(
            router.get("failovers", 0), router.get("requests", 0)
        ),
        "shard.queue_wait.share": _ratio(
            shards.get("queue_wait_seconds", 0), wall_s
        ),
        "shard.request.share": _ratio(shards.get("latency_seconds", 0), wall_s),
    }
    for operation in ("get", "put", "get_many", "put_many"):
        metrics[f"store.{operation}.share"] = share(f"store.{operation}")
        metrics[f"store.{operation}.calls_per_op"] = per_op(
            f"store.{operation}", "calls"
        )
    # Ratios the workload measures itself; anything it does not measure
    # reads 0.
    for name in (
        "server.http_overhead_share",
        "transport.hit_overhead_share",
        "trace.overhead_ratio",
    ):
        metrics[name] = (extra or {}).get(name, 0.0)
    return metrics
