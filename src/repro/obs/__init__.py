"""``repro.obs`` — the unified observability subsystem.

Three pieces, all stdlib-only and all inert with respect to results:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments,
  labeled by ``(component, stage)``, that the engine, guard, runner,
  service and store all record into;
* :mod:`repro.obs.tracing` — hierarchical pipeline spans
  (``with trace.span("generation", side="left")``) with a ring-buffer
  recorder behind the ``--trace`` CLI flag;
* :mod:`repro.obs.export` — Prometheus text and JSON exporters over a
  registry (``GET /metrics``, ``metrics.json``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Counter": ".metrics",
    "DEFAULT_BUCKETS": ".metrics",
    "DEFAULT_RING_SIZE": ".tracing",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "METRICS_FORMAT_VERSION": ".export",
    "MetricsRegistry": ".metrics",
    "ProgressTracker": ".progress",
    "Span": ".tracing",
    "TRACE_FORMAT_VERSION": ".tracing",
    "Tracer": ".tracing",
    "save_json": ".export",
    "span": ".tracing",
    "to_json": ".export",
    "to_prometheus": ".export",
    "trace": ".tracing",
})
