"""Backends wired into the serving stack: shards, fleet, artifact pins.

Covers the deployment topology the backend layer exists for — N shard
processes sharing one matcher server — plus the two startup guards that
keep a deployment from serving the wrong weights: the ShardSpec
fingerprint pin (blob and backend mode) and the service-level
``backend_unavailable`` health degradation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.backends.client import _BREAKER, RemoteBackend, RemoteBackendConfig
from repro.backends.server import MatcherServer
from repro.config import ServiceConfig, ShardConfig
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import (
    ArtifactMismatchError,
    ConfigurationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import ExplainRequest, ExplanationService, ShardedService
from repro.service.shard import ShardSpec, _build_matcher_source
from repro.service.supervisor import ShardedService as _Supervisor

SAMPLES = 24

FAST_SHARDS = dict(
    heartbeat_interval=0.05,
    heartbeat_timeout=1.5,
    check_interval=0.05,
    restart_backoff_base=0.2,
    restart_backoff_max=1.0,
)

CONFIG = RemoteBackendConfig(connect_timeout=5.0, call_timeout=60.0)


def _spec(**overrides) -> ShardSpec:
    defaults = dict(
        shard_id=0,
        service_config=ServiceConfig(),
        engine_config=None,
        store_dir=None,
        store_config=None,
    )
    defaults.update(overrides)
    return ShardSpec(**defaults)


class TestMatcherSource:
    def test_blob_mode_verifies_the_fingerprint(self, beer_matcher):
        registry = MetricsRegistry(enabled=False)
        spec = _spec(
            matcher_blob=pickle.dumps(beer_matcher),
            fingerprint=matcher_fingerprint(beer_matcher),
        )
        matcher = _build_matcher_source(spec, registry)
        assert matcher_fingerprint(matcher) == spec.fingerprint

    def test_blob_mode_refuses_foreign_weights(self, beer_matcher):
        registry = MetricsRegistry(enabled=False)
        spec = _spec(
            matcher_blob=pickle.dumps(beer_matcher),
            fingerprint="0" * 64,
        )
        with pytest.raises(ArtifactMismatchError, match="stale weights"):
            _build_matcher_source(spec, registry)

    def test_backend_mode_refuses_foreign_server(self, beer_matcher):
        registry = MetricsRegistry(enabled=False)
        with MatcherServer(beer_matcher) as server:
            spec = _spec(
                backend_address="%s:%d" % server.address,
                backend_config=CONFIG,
                fingerprint="f" * 64,
            )
            with pytest.raises(ArtifactMismatchError):
                _build_matcher_source(spec, registry)

    def test_backend_mode_accepts_the_pinned_server(self, beer_matcher):
        registry = MetricsRegistry(enabled=False)
        with MatcherServer(beer_matcher) as server:
            spec = _spec(
                backend_address="%s:%d" % server.address,
                backend_config=CONFIG,
                fingerprint=matcher_fingerprint(beer_matcher),
            )
            backend = _build_matcher_source(spec, registry)
            try:
                caps = backend.capabilities()
                assert caps.fingerprint == spec.fingerprint
            finally:
                backend.close()

    def test_neither_source_is_a_config_error(self):
        registry = MetricsRegistry(enabled=False)
        with pytest.raises(ConfigurationError, match="neither"):
            _build_matcher_source(_spec(), registry)


class TestShardedOverBackend:
    def test_requires_exactly_one_source(self, beer_matcher):
        with pytest.raises(ConfigurationError, match="exactly one"):
            _Supervisor(beer_matcher, backend_address="127.0.0.1:1")
        with pytest.raises(ConfigurationError, match="exactly one"):
            _Supervisor(None)

    def test_shards_share_one_matcher_server(
        self, beer_matcher, non_match_pair
    ):
        request = ExplainRequest(
            pair=non_match_pair, method="both", samples=SAMPLES, seed=0
        )
        with ExplanationService(beer_matcher) as single:
            expected = single.explain(request)
        with MatcherServer(beer_matcher, workers=4) as server:
            with ShardedService(
                backend_address="%s:%d" % server.address,
                shard_config=ShardConfig(n_shards=2, **FAST_SHARDS),
            ) as sharded:
                assert sharded.fingerprint == matcher_fingerprint(beer_matcher)
                got = sharded.explain(request, timeout=120)
        assert got == expected


class TestServiceHealth:
    def test_backend_section_and_degradation(self, beer_matcher, match_pair):
        with MatcherServer(beer_matcher) as server:
            backend = RemoteBackend(
                server.address,
                config=RemoteBackendConfig(connect_timeout=2.0, call_timeout=5.0),
            )
            with ExplanationService(backend) as service:
                status, healthy = service.health()
                assert status == 200
                assert healthy["ok"] is True
                assert healthy["backend"]["available"] is True
                # Kill the server; with no engine retries each failed
                # request is one failed call, so trip_after requests
                # (distinct keys, nothing coalesces) trip the breaker.
                server.close()
                for extra in range(_BREAKER.trip_after):
                    request = ExplainRequest(
                        pair=match_pair, method="single",
                        samples=SAMPLES + extra,
                    )
                    future = service.submit(request)
                    with pytest.raises(Exception) as info:
                        future.result(timeout=60)
                    assert getattr(info.value, "code", "") in (
                        "backend_unavailable", "explanation_error",
                    )
                status, sick = service.health()
                assert status == 503
                assert sick["degraded"] == "backend_unavailable"
                assert sick["backend"]["available"] is False

    def test_in_process_health_has_no_backend_section(self, beer_matcher):
        with ExplanationService(beer_matcher) as service:
            _, payload = service.health()
            assert "backend" not in payload

    def test_in_process_health_is_available(self, beer_matcher):
        with ExplanationService(beer_matcher) as service:
            status, payload = service.health()
            assert status == 200
            assert payload["ok"] is True
