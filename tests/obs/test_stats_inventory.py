"""Every component's counters: exported inventory and wiring.

Pins, for a service + store + guard-active engine sharing one registry,
and again for a 1-shard fleet router, a bulk job, an unconnected remote
backend client and an experiment runner sharing another:

* the exact ``collect()`` inventory — family name, kind, help string and
  every sample's label set — so a refactor of how the counters are
  declared cannot rename, re-help or re-label a series;
* the ``as_dict()`` key sets of :class:`EngineStats`,
  :class:`ServiceStats`, :class:`StoreStats`, :class:`RouterStats`,
  :class:`BulkStats`, :class:`BackendStats` and :class:`RunnerStats`;
* that every snapshot field reads the instrument (and, for histograms,
  the view) it is documented to read.  Before comparing, every
  instrument is moved by a distinct amount, so a field wired to the
  wrong instrument or view cannot match by coincidence.
"""

from __future__ import annotations

import pytest

from repro.backends.client import RemoteBackend
from repro.bulk import BulkJob, DatasetSource
from repro.config import ShardConfig
from repro.core.engine import EngineConfig
from repro.core.guard import GuardConfig
from repro.evaluation.runner import ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore
from repro.service.supervisor import ShardedService

ENGINE = {"component": "engine", "instance": "0"}
SERVICE = {"component": "service", "instance": "0"}
STORE = {"component": "store", "instance": "0"}
ROUTER = {"component": "router", "instance": "0"}
BULK = {"component": "bulk", "instance": "0"}
#: Never dialled: building the client opens no connection.
BACKEND_ADDRESS = "127.0.0.1:9"
BACKEND = {"component": "backend", "instance": "0",
           "address": BACKEND_ADDRESS}
RUNNER = {"component": "runner", "instance": "0"}

#: (name, kind, help, label sets) of every family the stack exports.
INVENTORY = [
    ("repro_engine_batch_width", "histogram",
     "Rows per matcher batch actually issued", [ENGINE]),
    ("repro_engine_batches_total", "counter",
     "Chunks sent to the matcher's predict_proba_columnar", [ENGINE]),
    ("repro_engine_cache_entries", "gauge",
     "Entries currently held by the prediction LRU cache", [ENGINE]),
    ("repro_engine_cache_hits_total", "counter",
     "Unique requests answered from the LRU cache", [ENGINE]),
    ("repro_engine_cache_misses_total", "counter",
     "Unique requests that missed the cache", [ENGINE]),
    ("repro_engine_calls_issued_total", "counter",
     "Predictions actually forwarded to the matcher", [ENGINE]),
    ("repro_engine_dedup_saved_total", "counter",
     "Requests answered by an identical request in the same batch",
     [ENGINE]),
    ("repro_engine_requests_total", "counter",
     "Predictions requested through any engine entry point", [ENGINE]),
    ("repro_guard_failures_total", "counter",
     "Matcher-guard failed attempts of any kind", [ENGINE]),
    ("repro_guard_fast_failures_total", "counter",
     "Calls rejected while the matcher circuit was open", [ENGINE]),
    ("repro_guard_recoveries_total", "counter",
     "Half-open probes that closed the matcher circuit", [ENGINE]),
    ("repro_guard_retries_total", "counter",
     "Matcher-guard re-invocations after a failed attempt", [ENGINE]),
    ("repro_guard_timeouts_total", "counter",
     "Matcher-guard attempts abandoned on timeout", [ENGINE]),
    ("repro_guard_trips_total", "counter",
     "Times the matcher circuit breaker tripped open", [ENGINE]),
    ("repro_service_cancelled_total", "counter",
     "Tickets dropped because every waiter cancelled", [SERVICE]),
    ("repro_service_coalesced_total", "counter",
     "Requests coalesced onto an in-flight computation", [SERVICE]),
    ("repro_service_deadline_exceeded_total", "counter",
     "Tickets that blew their deadline", [SERVICE]),
    ("repro_service_errors_total", "counter",
     "Computations that raised", [SERVICE]),
    ("repro_service_queue_depth", "gauge",
     "Work items pending on the service queue", [SERVICE]),
    ("repro_service_queue_peak", "gauge",
     "Highest queue depth observed at submission time", [SERVICE]),
    ("repro_service_queue_wait_seconds", "histogram",
     "Time tickets spent queued before a worker picked them up", [SERVICE]),
    ("repro_service_rejected_total", "counter",
     "Non-blocking submissions rejected on a full queue", [SERVICE]),
    ("repro_service_request_seconds", "histogram",
     "Wall time of completed explanation computations", [SERVICE]),
    ("repro_service_requests_total", "counter",
     "Requests accepted by ExplanationService.submit", [SERVICE]),
    ("repro_service_shed_total", "counter",
     "Submissions shed by admission control", [SERVICE]),
    ("repro_service_store_hits_total", "counter",
     "Requests answered from the persistent store", [SERVICE]),
    ("repro_stage_seconds", "histogram", "Wall time per pipeline stage",
     [{**ENGINE, "stage": "predict"}, {**ENGINE, "stage": "rebuild"}]),
    ("repro_store_corruptions_total", "counter",
     "Entries dropped on checksum/JSON/format failure", [STORE]),
    ("repro_store_evictions_total", "counter",
     "Entries removed by the LRU capacity bound", [STORE]),
    ("repro_store_expirations_total", "counter",
     "Entries dropped at read time past their TTL", [STORE]),
    ("repro_store_hits_total", "counter",
     "Lookups answered from a valid stored entry", [STORE]),
    ("repro_store_misses_total", "counter",
     "Lookups with no servable entry", [STORE]),
    ("repro_store_puts_total", "counter",
     "Entries written (inserts and overwrites)", [STORE]),
    ("repro_store_recoveries_total", "counter",
     "Corrupt database files quarantined and rebuilt", [STORE]),
]


#: The control-plane stack: a fleet router, a bulk job (whose engine
#: exports the engine and guard families above), a remote backend client
#: (whose guard exports under the backend's labels) and a runner.
_ENGINE_FAMILIES = [
    (name, kind, help, sets)
    for name, kind, help, sets in INVENTORY
    if name.startswith(("repro_engine_", "repro_guard_"))
]
CONTROL_INVENTORY = sorted(
    [
        *[
            (name, kind, help,
             sets + [BACKEND] if name.startswith("repro_guard_") else sets)
            for name, kind, help, sets in _ENGINE_FAMILIES
        ],
        ("repro_backend_batch_width", "histogram", "Rows per wire request",
         [BACKEND]),
        ("repro_backend_failures_total", "counter",
         "Round-trips that raised", [BACKEND]),
        ("repro_backend_inflight", "gauge",
         "Wire requests currently awaiting a response", [BACKEND]),
        ("repro_backend_reconnects_total", "counter",
         "Connections re-established after a loss", [BACKEND]),
        ("repro_backend_requests_total", "counter", "Wire requests sent",
         [BACKEND]),
        ("repro_backend_rtt_seconds", "histogram",
         "Round-trip time of one wire request", [BACKEND]),
        ("repro_bulk_chunk_seconds", "histogram",
         "Wall time per computed chunk", [BULK]),
        ("repro_bulk_chunks_total", "counter",
         "Chunks completed (computed, not resumed)", [BULK]),
        ("repro_bulk_computed_total", "counter", "Pairs explained fresh",
         [BULK]),
        ("repro_bulk_dedup_hits_total", "counter",
         "Pairs answered from the store or an intra-chunk duplicate",
         [BULK]),
        ("repro_bulk_eta_seconds", "gauge",
         "Estimated seconds to completion (-1 before the first sample)",
         [BULK]),
        ("repro_bulk_failures_total", "counter",
         "Pairs that failed to explain", [BULK]),
        ("repro_bulk_pairs_total", "counter",
         "Pairs processed by completed chunks", [BULK]),
        ("repro_bulk_progress_pairs", "gauge", "Pairs finished so far",
         [BULK]),
        ("repro_bulk_resumed_chunks_total", "counter",
         "Chunks restored from the journal instead of re-run", [BULK]),
        ("repro_bulk_total_pairs", "gauge", "Pairs the job will process",
         [BULK]),
        ("repro_hosts_lost", "counter",
         "Shard hosts declared lost and replaced by a standby", [ROUTER]),
        ("repro_router_failovers", "counter",
         "In-flight requests re-dispatched after a shard death", [ROUTER]),
        ("repro_router_requests", "counter", "Requests routed to shards",
         [ROUTER]),
        ("repro_router_requests_failed", "counter",
         "Requests failed with shard_failed after exhausting failovers",
         [ROUTER]),
        ("repro_runner_cells_failed_total", "counter",
         "Grid cells whose evaluation stage failed entirely", [RUNNER]),
        ("repro_runner_cells_total", "counter",
         "Grid cells attempted (checkpointed cells excluded)", [RUNNER]),
        ("repro_runner_records_total", "counter",
         "Records successfully explained across all grid cells", [RUNNER]),
        ("repro_shard_connect_failures", "counter",
         "Failed shard launch/connect cycles", [ROUTER]),
        ("repro_shard_deaths", "counter",
         "Shard processes that died or were declared hung", [ROUTER]),
        ("repro_shard_reconnects", "counter",
         "Remote shards re-adopted after a lost connection", [ROUTER]),
        ("repro_shard_restarts", "counter",
         "Shard processes restarted by the supervisor", [ROUTER]),
        ("repro_shards_live", "gauge", "Shards currently serving",
         [ROUTER]),
        ("repro_stage_seconds", "histogram", "Wall time per pipeline stage",
         [{**ENGINE, "stage": "predict"}, {**ENGINE, "stage": "rebuild"},
          {**RUNNER, "stage": "cell"}]),
    ],
    key=lambda family: family[0],
)

_GUARD = ("retries", "timeouts", "failures", "trips", "fast_failures",
          "recoveries")

#: Snapshot field -> (family, labels, histogram view or None).
ENGINE_FIELDS = {
    "requested": ("repro_engine_requests_total", ENGINE, None),
    "calls_issued": ("repro_engine_calls_issued_total", ENGINE, None),
    "dedup_saved": ("repro_engine_dedup_saved_total", ENGINE, None),
    "cache_hits": ("repro_engine_cache_hits_total", ENGINE, None),
    "cache_misses": ("repro_engine_cache_misses_total", ENGINE, None),
    "batches": ("repro_engine_batches_total", ENGINE, None),
    "rebuild_seconds": (
        "repro_stage_seconds", {**ENGINE, "stage": "rebuild"}, "sum"),
    "predict_seconds": (
        "repro_stage_seconds", {**ENGINE, "stage": "predict"}, "sum"),
    **{
        f"guard_{name}": (f"repro_guard_{name}_total", ENGINE, None)
        for name in _GUARD
    },
}
SERVICE_FIELDS = {
    **{
        name: (f"repro_service_{name}_total", SERVICE, None)
        for name in ("requests", "store_hits", "coalesced", "errors",
                     "rejected", "shed", "cancelled", "deadline_exceeded")
    },
    "computed": ("repro_service_request_seconds", SERVICE, "count"),
    "queue_peak": ("repro_service_queue_peak", SERVICE, None),
    "latency_seconds": ("repro_service_request_seconds", SERVICE, "sum"),
    "latency_max": ("repro_service_request_seconds", SERVICE, "max"),
    "queue_wait_seconds": (
        "repro_service_queue_wait_seconds", SERVICE, "sum"),
    "queue_wait_max": ("repro_service_queue_wait_seconds", SERVICE, "max"),
}
STORE_FIELDS = {
    name: (f"repro_store_{name}_total", STORE, None)
    for name in ("hits", "misses", "puts", "evictions", "expirations",
                 "corruptions", "recoveries")
}

ROUTER_FIELDS = {
    "requests": ("repro_router_requests", ROUTER, None),
    "failovers": ("repro_router_failovers", ROUTER, None),
    "requests_failed": ("repro_router_requests_failed", ROUTER, None),
    "live": ("repro_shards_live", ROUTER, None),
    "deaths": ("repro_shard_deaths", ROUTER, None),
    "restarts": ("repro_shard_restarts", ROUTER, None),
    "connect_failures": ("repro_shard_connect_failures", ROUTER, None),
    "reconnects": ("repro_shard_reconnects", ROUTER, None),
    "hosts_lost": ("repro_hosts_lost", ROUTER, None),
}
BULK_FIELDS = {
    **{
        name: (f"repro_bulk_{name}_total", BULK, None)
        for name in ("chunks", "pairs", "computed", "dedup_hits", "failures",
                     "resumed_chunks")
    },
    "progress": ("repro_bulk_progress_pairs", BULK, None),
    "total": ("repro_bulk_total_pairs", BULK, None),
    "chunk_seconds": ("repro_bulk_chunk_seconds", BULK, "sum"),
}
BACKEND_FIELDS = {
    **{
        name: (f"repro_backend_{name}_total", BACKEND, None)
        for name in ("requests", "failures", "reconnects")
    },
    "inflight": ("repro_backend_inflight", BACKEND, None),
}
RUNNER_FIELDS = {
    "cells": ("repro_runner_cells_total", RUNNER, None),
    "cells_failed": ("repro_runner_cells_failed_total", RUNNER, None),
    "records": ("repro_runner_records_total", RUNNER, None),
    "cell_seconds": (
        "repro_stage_seconds", {**RUNNER, "stage": "cell"}, "sum"),
}

ENGINE_KEYS = set(ENGINE_FIELDS) | {"calls_saved", "hit_rate",
                                    "savings_factor"}
SERVICE_KEYS = set(SERVICE_FIELDS) | {"served_without_compute",
                                      "latency_mean"}
STORE_KEYS = set(STORE_FIELDS) | {"hit_rate"}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


@pytest.fixture()
def stack(beer_matcher, match_pair, tmp_path):
    """One computed request and one store hit on a shared registry."""
    registry = MetricsRegistry()
    store = ExplanationStore(tmp_path / "store", metrics=registry)
    service = ExplanationService(
        beer_matcher, store=store, metrics=registry,
        engine_config=EngineConfig(guard=GuardConfig(max_retries=1)),
    )
    request = ExplainRequest(pair=match_pair, method="single", samples=32)
    try:
        first = service.explain(request)
        assert service.explain(request) == first
        yield registry, service, store
    finally:
        service.close()
        store.close()


@pytest.fixture()
def control_plane(beer_dataset, beer_matcher):
    """A 1-shard fleet, a bulk job, a backend client and a runner."""
    registry = MetricsRegistry()
    fleet = ShardedService(
        beer_matcher, shard_config=ShardConfig(n_shards=1), metrics=registry,
    )
    backend = RemoteBackend(BACKEND_ADDRESS, metrics=registry)
    try:
        job = BulkJob(
            beer_matcher, DatasetSource(beer_dataset, per_label=1, seed=0),
            metrics=registry,
        )
        runner = ExperimentRunner(metrics=registry)
        yield registry, fleet, job, backend, runner
    finally:
        backend.close()
        fleet.close()


def _inventory(registry: MetricsRegistry) -> list:
    return [
        (
            family["name"], family["kind"], family["help"],
            [_label_key(labels) for labels, _ in family["samples"]],
        )
        for family in registry.collect()
    ]


def _pinned(inventory: list) -> list:
    return [
        (name, kind, help, sorted(_label_key(labels) for labels in sets))
        for name, kind, help, sets in inventory
    ]


def _samples(registry: MetricsRegistry) -> dict:
    """``(family, label key) -> value`` of one atomic collect."""
    return {
        (family["name"], _label_key(labels)): value
        for family in registry.collect()
        for labels, value in family["samples"]
    }


def _expected(samples: dict, table: dict) -> dict:
    """The value each field of *table* should read from *samples*."""
    out = {}
    for field, (name, labels, view) in table.items():
        value = samples[(name, _label_key(labels))]
        out[field] = value if view is None else value[view]
    return out


def _assert_distinct(samples: dict) -> None:
    """Every instrument moved by a distinct amount, so equal values
    cannot come from a field wired to a sibling series."""
    plain = [v for v in samples.values() if not isinstance(v, dict)]
    assert len(set(plain)) == len(plain)


def _perturb(registry: MetricsRegistry) -> None:
    """Move every instrument by an amount no other instrument shares."""
    step = 0
    for family in registry.collect():
        name, kind, help = family["name"], family["kind"], family["help"]
        for labels, _ in family["samples"]:
            step += 1
            if kind == "counter":
                registry.counter(name, help, **labels).inc(1000 * step)
            elif kind == "gauge":
                registry.gauge(name, help, **labels).set(1000 * step + 7)
            else:
                histogram = registry.histogram(name, help, **labels)
                for _ in range(step):
                    histogram.observe(1000.0 * step + 0.5)


class TestStatsInventory:
    def test_collect_inventory_is_pinned(self, stack):
        registry, _, _ = stack
        assert _inventory(registry) == _pinned(INVENTORY)

    def test_control_plane_inventory_is_pinned(self, control_plane):
        registry = control_plane[0]
        assert _inventory(registry) == _pinned(CONTROL_INVENTORY)

    def test_as_dict_keys_are_pinned(self, stack):
        _, service, store = stack
        assert set(service.engine.stats.as_dict()) == ENGINE_KEYS
        assert set(service.stats.as_dict()) == SERVICE_KEYS
        assert set(store.stats.as_dict()) == STORE_KEYS
        payload = service.stats_payload()
        assert set(payload) == {"matcher_fingerprint", "service", "store",
                                "engine"}
        assert set(payload["engine"]) == ENGINE_KEYS
        assert set(payload["service"]) == SERVICE_KEYS
        assert set(payload["store"]) == STORE_KEYS

    def test_drive_moved_the_stack(self, stack):
        _, service, store = stack
        assert service.stats.computed == 1
        assert service.stats.store_hits == 1
        assert store.stats.puts == 1
        assert service.engine.stats.calls_issued > 0

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_every_field_reads_its_instrument(self, stack, perturbed):
        registry, service, store = stack
        if perturbed:
            _perturb(registry)
        samples = _samples(registry)
        snapshots = (
            (service.engine.stats, ENGINE_FIELDS),
            (service.stats, SERVICE_FIELDS),
            (store.stats, STORE_FIELDS),
        )
        for snapshot, table in snapshots:
            assert ({f: getattr(snapshot, f) for f in table}
                    == _expected(samples, table))
        payload = service.stats_payload()
        for section, (snapshot, table) in zip(
            ("engine", "service", "store"), snapshots
        ):
            assert payload[section] == snapshot.as_dict()
            assert ({f: payload[section][f] for f in table}
                    == _expected(samples, table))
        if perturbed:
            _assert_distinct(samples)

    def test_control_plane_as_dict_keys_are_pinned(self, control_plane):
        _, fleet, job, backend, runner = control_plane
        assert set(fleet.stats.as_dict()) == set(ROUTER_FIELDS)
        assert set(job._instruments.snapshot().as_dict()) == set(BULK_FIELDS)
        assert (set(backend._instruments.snapshot().as_dict())
                == set(BACKEND_FIELDS))
        assert (set(runner._instruments.snapshot().as_dict())
                == set(RUNNER_FIELDS))
        payload = fleet.stats_payload()
        assert set(payload) == {"router", "shards"}
        assert set(payload["router"]) == set(ROUTER_FIELDS) | {"n_shards",
                                                               "pending"}

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_every_control_plane_field_reads_its_instrument(
        self, control_plane, perturbed
    ):
        registry, fleet, job, backend, runner = control_plane
        if perturbed:
            _perturb(registry)
        samples = _samples(registry)
        snapshots = (
            (fleet.stats, ROUTER_FIELDS),
            (job._instruments.snapshot(), BULK_FIELDS),
            (backend._instruments.snapshot(), BACKEND_FIELDS),
            (runner._instruments.snapshot(), RUNNER_FIELDS),
        )
        for snapshot, table in snapshots:
            assert snapshot.as_dict() == _expected(samples, table)
        router = fleet.stats_payload()["router"]
        assert ({f: router[f] for f in ROUTER_FIELDS}
                == _expected(samples, ROUTER_FIELDS))
        assert backend.health()["reconnects"] == samples[
            ("repro_backend_reconnects_total", _label_key(BACKEND))
        ]
        if perturbed:
            _assert_distinct(samples)
