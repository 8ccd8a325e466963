"""The engine, service and store counters: exported inventory and wiring.

Pins, for a service + store + guard-active engine sharing one registry:

* the exact ``collect()`` inventory — family name, kind, help string and
  every sample's label set — so a refactor of how the counters are
  declared cannot rename, re-help or re-label a series;
* the ``as_dict()`` key sets of :class:`EngineStats`,
  :class:`ServiceStats` and :class:`StoreStats`;
* that every snapshot field reads the instrument (and, for histograms,
  the view) it is documented to read.  Before comparing, every
  instrument is moved by a distinct amount, so a field wired to the
  wrong instrument or view cannot match by coincidence.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig
from repro.core.guard import GuardConfig
from repro.obs.metrics import MetricsRegistry
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore

ENGINE = {"component": "engine", "instance": "0"}
SERVICE = {"component": "service", "instance": "0"}
STORE = {"component": "store", "instance": "0"}

#: (name, kind, help, label sets) of every family the stack exports.
INVENTORY = [
    ("repro_engine_batch_width", "histogram",
     "Rows per matcher batch actually issued", [ENGINE]),
    ("repro_engine_batches_total", "counter",
     "Chunks sent to the matcher's predict_proba", [ENGINE]),
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
        collected = [
            (
                family["name"], family["kind"], family["help"],
                [_label_key(labels) for labels, _ in family["samples"]],
            )
            for family in registry.collect()
        ]
        expected = [
            (name, kind, help, sorted(_label_key(labels) for labels in sets))
            for name, kind, help, sets in INVENTORY
        ]
        assert collected == expected

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
        samples = {
            (family["name"], _label_key(labels)): value
            for family in registry.collect()
            for labels, value in family["samples"]
        }

        def expected(table: dict) -> dict:
            out = {}
            for field, (name, labels, view) in table.items():
                value = samples[(name, _label_key(labels))]
                out[field] = value if view is None else value[view]
            return out

        snapshots = (
            (service.engine.stats, ENGINE_FIELDS),
            (service.stats, SERVICE_FIELDS),
            (store.stats, STORE_FIELDS),
        )
        for snapshot, table in snapshots:
            assert {f: getattr(snapshot, f) for f in table} == expected(table)
        payload = service.stats_payload()
        for section, (snapshot, table) in zip(
            ("engine", "service", "store"), snapshots
        ):
            assert payload[section] == snapshot.as_dict()
            assert {f: payload[section][f] for f in table} == expected(table)
        if perturbed:
            # Every instrument moved by a distinct amount, so equal values
            # above cannot come from a field wired to a sibling series.
            plain = [
                v for v in samples.values() if not isinstance(v, dict)
            ]
            assert len(set(plain)) == len(plain)
