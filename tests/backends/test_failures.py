"""The backend failure taxonomy, end to end.

Each transport failure mode must map to one exception class, the right
``retryable`` flag and the right HTTP status — timeouts are not
connection losses are not protocol violations, because clients retry
them differently.  Faults are injected from outside both ends: a
:class:`~repro.testing.chaos.ChaosProxy` sits between the *real* client
and the *real* server and mangles the stream, armed after the handshake
so the fault lands on a predict response.

The client makes one wire attempt per call and keeps only a breaker;
retries belong to the engine's guard, so the recovery and attempt-count
tests drive the client through a :class:`PredictionEngine`.
"""

from __future__ import annotations

import contextlib
import socket

import numpy as np
import pytest

from repro.backends.client import _BREAKER, RemoteBackend, RemoteBackendConfig
from repro.backends.server import MatcherServer
from repro.config import EngineConfig, GuardConfig
from repro.core.engine import PredictionEngine
from repro.exceptions import (
    BackendProtocolError,
    BackendUnavailableError,
    MatcherTimeoutError,
    is_retryable,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.server import http_status_for
from repro.testing.chaos import ChaosProxy

from tests.backends.test_remote import RecordingMatcher, named_batch


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _config(call_timeout: float = 5.0) -> RemoteBackendConfig:
    return RemoteBackendConfig(connect_timeout=1.0, call_timeout=call_timeout)


def _engine(backend, max_retries: int) -> PredictionEngine:
    """An engine whose guard retries *max_retries* times, with tiny backoff."""
    guard = GuardConfig(max_retries=max_retries, backoff=0.01, backoff_max=0.02)
    return PredictionEngine(backend, EngineConfig(guard=guard))


def _count_attempts(backend) -> list[int]:
    """Record one entry per wire attempt *backend* makes from now on."""
    attempts: list[int] = []
    roundtrip = backend._roundtrip

    def counted(batch):
        attempts.append(0 if batch is None else batch.n_rows)
        return roundtrip(batch)

    backend._roundtrip = counted
    return attempts


@contextlib.contextmanager
def _proxied(matcher, **proxy_options):
    """A matcher server behind a :class:`ChaosProxy`; yields the proxy."""
    with MatcherServer(matcher) as server:
        with ChaosProxy(*server.address, **proxy_options) as proxy:
            yield proxy


def _handshaken(proxy: ChaosProxy, config: RemoteBackendConfig):
    """A backend dialled through *proxy*, past its handshake."""
    backend = RemoteBackend(proxy.address, config=config)
    backend.capabilities()
    return backend


class TestTaxonomy:
    def test_connection_refused_is_unavailable(self):
        backend = RemoteBackend(("127.0.0.1", _free_port()), config=_config())
        try:
            with pytest.raises(BackendUnavailableError) as info:
                backend.predict_proba_columnar(named_batch("p"))
        finally:
            backend.close()
        assert is_retryable(info.value)
        assert http_status_for(info.value.code) == 503

    def test_response_timeout_is_matcher_timeout(self):
        with _proxied(RecordingMatcher(), delay_seconds=5.0) as proxy:
            backend = _handshaken(proxy, _config(call_timeout=0.2))
            proxy.set_mode("slow")
            try:
                with pytest.raises(MatcherTimeoutError) as info:
                    backend.predict_proba_columnar(named_batch("p"))
            finally:
                backend.close()
        assert is_retryable(info.value)
        assert http_status_for(info.value.code) == 504

    def test_mid_frame_disconnect_is_unavailable(self):
        with _proxied(RecordingMatcher()) as proxy:
            backend = _handshaken(proxy, _config())
            proxy.cut_next_frame()
            try:
                with pytest.raises(BackendUnavailableError) as info:
                    backend.predict_proba_columnar(named_batch("p"))
            finally:
                backend.close()
        assert is_retryable(info.value)
        assert http_status_for(info.value.code) == 503

    def test_garbage_frame_is_protocol_error(self):
        with _proxied(RecordingMatcher()) as proxy:
            backend = _handshaken(proxy, _config())
            engine = _engine(backend, max_retries=3)
            proxy.corrupt_next_frame()
            try:
                with pytest.raises(BackendProtocolError) as info:
                    engine.predict_columnar(named_batch("p"))
                # Fail-fast: a garbage-speaking peer burns no retries.
                assert engine.stats.guard_retries == 0
                assert engine.stats.guard_failures == 1
            finally:
                backend.close()
        assert not is_retryable(info.value)
        assert http_status_for(info.value.code) == 502

    def test_guard_counters_export_under_backend_labels(self):
        registry = MetricsRegistry()
        address = ("127.0.0.1", _free_port())
        backend = RemoteBackend(address, config=_config(), metrics=registry)
        try:
            with pytest.raises(BackendUnavailableError):
                backend.predict_proba_columnar(named_batch("p"))
        finally:
            backend.close()
        labels = {"component": "backend", "instance": "0",
                  "address": "%s:%d" % address}
        exported = {
            family["name"]: value
            for family in registry.collect()
            if family["name"].startswith("repro_guard_")
            for sample_labels, value in family["samples"]
            if sample_labels == labels
        }
        # One wire attempt, no retry: the breaker counts the failure.
        assert exported == {
            "repro_guard_retries_total": 0.0,
            "repro_guard_timeouts_total": 0.0,
            "repro_guard_failures_total": 1.0,
            "repro_guard_trips_total": 0.0,
            "repro_guard_fast_failures_total": 0.0,
            "repro_guard_recoveries_total": 0.0,
        }
        assert backend.guard_stats.guard_retries == 0
        assert backend.guard_stats.guard_failures == 1

    def test_retryable_flags_name_the_transient_layer(self):
        assert BackendUnavailableError.retryable is True
        assert MatcherTimeoutError.retryable is True
        assert BackendProtocolError.retryable is False


class TestAttempts:
    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_dead_address_costs_one_wire_attempt_per_engine_attempt(
        self, max_retries
    ):
        backend = RemoteBackend(("127.0.0.1", _free_port()), config=_config())
        engine = _engine(backend, max_retries)
        attempts = _count_attempts(backend)
        try:
            with pytest.raises(BackendUnavailableError):
                engine.predict_columnar(named_batch("a", "b", "c", "d"))
            # The engine's guard is the one retry owner: each of its
            # attempts is exactly one wire attempt (1, 2, 3).
            assert attempts == [4] * (max_retries + 1)
            assert engine.stats.guard_retries == max_retries
            assert backend.guard_stats.guard_retries == 0
            assert backend.guard_stats.guard_failures == max_retries + 1
            assert backend.health()["breaker"] == "closed"
        finally:
            backend.close()

    def test_open_client_breaker_costs_no_engine_retry(self):
        backend = RemoteBackend(("127.0.0.1", _free_port()), config=_config())
        for _ in range(_BREAKER.trip_after):
            with pytest.raises(BackendUnavailableError):
                backend.predict_proba_columnar(named_batch("p"))
        assert backend.health()["breaker"] == "open"
        engine = _engine(backend, max_retries=2)
        attempts = _count_attempts(backend)
        try:
            with pytest.raises(BackendUnavailableError) as info:
                engine.predict_columnar(named_batch("a", "b", "c", "d"))
        finally:
            backend.close()
        assert info.value.guard_no_retry is True
        assert attempts == []
        assert engine.stats.guard_retries == 0
        assert engine.stats.guard_failures == 1
        assert backend.guard_stats.guard_fast_failures == 1


class TestRecovery:
    def test_disconnect_heals_via_retry_and_reconnect(self):
        with _proxied(RecordingMatcher()) as proxy:
            backend = _handshaken(proxy, _config())
            engine = _engine(backend, max_retries=1)
            proxy.cut_next_frame()
            try:
                scores = engine.predict_columnar(named_batch("p", "q"))
                np.testing.assert_array_equal(
                    scores, np.linspace(0.0, 1.0, 2)
                )
                assert backend.health()["reconnects"] == 1
                assert engine.stats.guard_retries == 1
                assert backend.guard_stats.guard_retries == 0
            finally:
                backend.close()

    def test_breaker_opens_then_recovers_on_restart(self):
        port = _free_port()
        backend = RemoteBackend(("127.0.0.1", port), config=_config())
        attempts = _count_attempts(backend)
        try:
            for _ in range(_BREAKER.trip_after):
                with pytest.raises(BackendUnavailableError):
                    backend.predict_proba_columnar(named_batch("p"))
            health = backend.health()
            assert health["breaker"] == "open"
            assert health["available"] is False
            # Fast-fail while open: no dial attempt burns the cooldown.
            for _ in range(_BREAKER.cooldown):
                with pytest.raises(BackendUnavailableError):
                    backend.predict_proba_columnar(named_batch("p"))
            assert len(attempts) == _BREAKER.trip_after
            # The server comes back on the same address: the half-open
            # probe passes and the breaker closes — automatic recovery.
            with MatcherServer(RecordingMatcher(), port=port) as _server:
                scores = backend.predict_proba_columnar(
                    named_batch("p", "q", "r")
                )
                assert scores.shape == (3,)
                assert backend.health()["available"] is True
                assert backend.health()["breaker"] == "closed"
        finally:
            backend.close()

    def test_restart_with_different_model_is_refused(self, beer_matcher):
        port = _free_port()
        backend = RemoteBackend(("127.0.0.1", port), config=_config())
        try:
            with MatcherServer(RecordingMatcher(), port=port) as _first:
                backend.predict_proba_columnar(named_batch("p"))
            with pytest.raises(BackendUnavailableError):
                backend.predict_proba_columnar(named_batch("p"))  # server gone
            # Same address, different weights: every cache downstream is
            # keyed by the old fingerprint, so the reconnect must refuse.
            with MatcherServer(beer_matcher, port=port) as _second:
                with pytest.raises(BackendProtocolError, match="changed"):
                    backend.predict_proba_columnar(named_batch("p"))
        finally:
            backend.close()
