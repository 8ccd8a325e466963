"""The instrument inventory in ``docs/architecture.md`` stays complete.

Builds every in-process component that records metrics — engine,
service, store, bulk job, remote backend client and experiment runner —
on one registry, and checks each collected family against the table's
series column (``repro_x_{a,b}_total`` brace forms expanded).
"""

from __future__ import annotations

import re
import socket
from pathlib import Path

from repro.backends.client import RemoteBackend
from repro.bulk import BulkJob, DatasetSource
from repro.evaluation.runner import ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore

DOC = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"

#: Families only the multi-process shard supervisor creates.
ROUTER_FAMILIES = {
    "repro_router_requests", "repro_router_failovers",
    "repro_router_requests_failed", "repro_shard_deaths",
    "repro_shard_restarts", "repro_shards_live",
    "repro_shard_connect_failures", "repro_shard_reconnects",
    "repro_hosts_lost",
}


def _expand(series: str) -> list[str]:
    match = re.search(r"\{([^}]*)\}", series)
    if match is None:
        return [series]
    head, tail = series[:match.start()], series[match.end():]
    return [
        name
        for option in match.group(1).split(",")
        for name in _expand(head + option.strip() + tail)
    ]


def documented_families() -> set[str]:
    names: set[str] = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `repro_"):
            continue
        first_cell = line.split("|")[1]
        for series in re.findall(r"`([^`]+)`", first_cell):
            names.update(_expand(series))
    return names


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_brace_expansion():
    assert _expand("repro_a_{b,c}_total") == ["repro_a_b_total",
                                              "repro_a_c_total"]
    assert _expand("repro_x") == ["repro_x"]


def test_every_collected_family_is_documented(
    beer_dataset, beer_matcher, tmp_path
):
    registry = MetricsRegistry()
    store = ExplanationStore(tmp_path / "store", metrics=registry)
    service = ExplanationService(beer_matcher, store=store, metrics=registry)
    backend = RemoteBackend(("127.0.0.1", _free_port()), metrics=registry)
    try:
        BulkJob(
            beer_matcher, DatasetSource(beer_dataset, per_label=1, seed=0),
            store=store, metrics=registry,
        )
        ExperimentRunner(metrics=registry)
        collected = {family["name"] for family in registry.collect()}
    finally:
        backend.close()
        service.close()
        store.close()
    documented = documented_families()
    assert collected - documented == set()
    # And no stale row: whatever is documented but not built here is
    # created only by the shard supervisor.
    assert documented - collected == ROUTER_FAMILIES
