"""The online explanation-serving subsystem.

Deployed explainable-EM systems treat explanations as servable, cacheable
artifacts keyed by record pair and model.  This package turns the
reproduction into that shape:

* :mod:`repro.service.request` — :class:`ExplainRequest` and its
  content-addressed :func:`request_key` (matcher fingerprint + record
  digest + method + explainer config);
* :mod:`repro.service.store` — :class:`ExplanationStore`, the persistent
  versioned SQLite cache with LRU/TTL eviction and corruption detection;
* :mod:`repro.service.service` — :class:`ExplanationService`, the worker
  pool with request coalescing over one shared, guarded
  :class:`~repro.core.engine.PredictionEngine`;
* :mod:`repro.service.server` — the ``serve`` front-ends (JSONL stdio /
  localhost HTTP) behind the CLI; the ``precompute`` store warmer lives
  in :mod:`repro.bulk.warm` and is exported here lazily;
* :mod:`repro.service.router` / :mod:`repro.service.shard` /
  :mod:`repro.service.supervisor` — multi-process sharded serving:
  :class:`ShardedService` fronts N shard processes (each a complete
  :class:`ExplanationService` with its own store partition) behind a
  consistent-hash router (:class:`HashRing`) and a supervising shard
  manager with heartbeat monitoring, capped-backoff crash restarts and
  in-flight failover;
* :mod:`repro.service.transport` / :mod:`repro.service.fleet` —
  cross-host fleets: a pluggable shard transport (in-process pipes, or
  ``RSF1`` frames over TCP to standing ``serve-shard`` hosts described
  by a :class:`FleetConfig`), plus the :class:`ShardServer` those hosts
  run; the supervisor gains host-loss replacement onto standby hosts
  and partition-tolerant, receiver-clock heartbeat liveness.

Quickstart::

    from repro import LogisticRegressionMatcher, load_dataset
    from repro.service import ExplanationService, ExplanationStore, ExplainRequest

    dataset = load_dataset("S-BR", size_cap=500)
    matcher = LogisticRegressionMatcher().fit(dataset)
    with ExplanationService(matcher, store=ExplanationStore("./store")) as svc:
        payload = svc.explain(ExplainRequest(pair=dataset[0], method="both"))
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FleetConfig": ".transport",
    "FleetShard": ".transport",
    "ShardServer": ".fleet",
    "load_fleet_config": ".transport",
    "parse_fleet_config": ".transport",
    "ERROR_STATUS": ".server",
    "ExplainRequest": ".request",
    "ExplanationService": ".service",
    "ExplanationStore": ".store",
    "PrecomputeReport": "repro.bulk.warm",
    "REQUEST_EXPLAINERS": ".request",
    "REQUEST_METHODS": ".request",
    "HashRing": ".router",
    "RESULT_FORMAT_VERSION": ".service",
    "RouterStats": ".supervisor",
    "STORE_FORMAT_VERSION": ".store",
    "ServiceConfig": "repro.config",
    "ServiceStats": ".service",
    "ShardConfig": "repro.config",
    "ShardSpec": ".shard",
    "ShardedService": ".supervisor",
    "StoreConfig": "repro.config",
    "StoreStats": ".store",
    "duals_from_result": ".service",
    "shard_store_dir": ".store",
    "handle_payload": ".server",
    "http_status_for": ".server",
    "precompute": "repro.bulk.warm",
    "request_from_payload": ".request",
    "request_key": ".request",
    "serve_http": ".server",
    "serve_stdio": ".server",
})
