"""RemoteBackend against a live MatcherServer: parity, pipelining, reuse."""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.backends.base import DEFAULT_MAX_BATCH_SIZE
from repro.backends.client import (
    RemoteBackend,
    RemoteBackendConfig,
    parse_address,
)
from repro.backends.server import MatcherServer
from repro.config import GuardConfig
from repro.core.columnar import ColumnarPairBatch, ValueColumn, pairs_batch
from repro.core.engine import PredictionEngine
from repro.core.serialize import matcher_fingerprint
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.exceptions import (
    BackendError,
    BackendProtocolError,
    ConfigurationError,
)
from repro.obs.metrics import MetricsRegistry

#: Client config tuned for tests: fast failure, no long waits.
FAST_CONFIG = RemoteBackendConfig(connect_timeout=2.0, call_timeout=10.0)


_NAMED = PairSchema(("name",))


def named_batch(*names: str) -> ColumnarPairBatch:
    """One row per name; the name is the row's left value."""
    return pairs_batch([
        RecordPair(schema=_NAMED, left={"name": name}, right={"name": ""})
        for name in names
    ])


class RecordingMatcher:
    """A picklable double that records batch sizes and completion order.

    It scores materialized pairs (no columnar kernel).  Batches whose
    first row is named ``"slow"`` (see :func:`named_batch`) sleep before
    returning, so concurrent server workers finish out of submission
    order — the property the pipelined client must tolerate.
    """

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.batches: list[int] = []
        self.completed: list[str] = []
        self._lock = threading.Lock()

    def predict_proba(self, pairs):
        pairs = list(pairs)
        first = next(iter(pairs[0].left.values())) if pairs else ""
        if first == "slow":
            time.sleep(self.delay)
        with self._lock:
            self.batches.append(len(pairs))
            self.completed.append(first)
        return np.linspace(0.0, 1.0, len(pairs))


class ColumnarRecorder:
    """Scores with a real matcher's columnar kernel, recording widths."""

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self.batches: list[int] = []

    def predict_proba(self, pairs):
        return self.matcher.predict_proba(pairs)

    def predict_proba_columnar(self, batch):
        self.batches.append(batch.n_rows)
        return self.matcher.predict_proba_columnar(batch)


def _constant_batch(pair, n_rows: int) -> ColumnarPairBatch:
    """A columnar batch whose every row is *pair* itself."""
    columns = {
        (side, attribute): ValueColumn.constant(
            getattr(pair, side)[attribute], n_rows
        )
        for side in ("left", "right")
        for attribute in pair.schema.attributes
    }
    return ColumnarPairBatch(pair, columns, n_rows)


@pytest.fixture(scope="module")
def served(beer_matcher):
    with MatcherServer(beer_matcher, workers=2) as server:
        backend = RemoteBackend(server.address, config=FAST_CONFIG)
        yield server, backend
        backend.close()


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("127.0.0.1:7654") == ("127.0.0.1", 7654)

    def test_tuple(self):
        assert parse_address(("localhost", 99)) == ("localhost", 99)

    def test_rejects_garbage(self):
        for bad in ("no-port", "host:", ":1234", 17, "host:port"):
            with pytest.raises(ConfigurationError):
                parse_address(bad)


class TestConfig:
    def test_client_guard_is_a_fixed_breaker(self):
        backend = RemoteBackend(("127.0.0.1", 1))
        try:
            # No retries and no timeout of its own (the engine's guard
            # retries, call_timeout bounds the wait); the default breaker.
            assert backend._guard.config == GuardConfig(
                max_retries=0, call_timeout=None, trip_after=5, cooldown=8,
                backoff=0.05, backoff_max=2.0, seed=0, always_active=True,
            )
        finally:
            backend.close()
        fields = {field.name for field in dataclasses.fields(RemoteBackendConfig)}
        assert fields == {"connect_timeout", "call_timeout", "max_in_flight"}


class TestHandshake:
    def test_capabilities_come_from_the_server(self, served, beer_matcher):
        server, backend = served
        caps = backend.capabilities()
        assert caps.fingerprint == matcher_fingerprint(beer_matcher)
        assert caps.max_batch_size == DEFAULT_MAX_BATCH_SIZE
        assert caps.matcher_class == type(beer_matcher).__name__

    def test_wrong_protocol_version_is_rejected(self, served, monkeypatch):
        server, _ = served
        import repro.backends.client as client_module

        monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 99)
        probe = RemoteBackend(server.address, config=FAST_CONFIG)
        try:
            with pytest.raises(BackendProtocolError):
                probe.capabilities()
        finally:
            probe.close()


class TestPredictParity:
    def test_scores_are_bit_identical(self, served, beer_matcher,
                                      beer_dataset):
        _, backend = served
        pairs = list(beer_dataset)[:40]
        np.testing.assert_array_equal(
            backend.predict_proba_columnar(pairs_batch(pairs)),
            beer_matcher.predict_proba(pairs),
        )

    def test_empty_batch_short_circuits(self, served):
        _, backend = served
        assert backend.predict_proba([]).shape == (0,)

    def test_predictions_delegate(self, served, beer_matcher, beer_dataset):
        _, backend = served
        pairs = list(beer_dataset)[:8]
        np.testing.assert_array_equal(
            backend.predict_proba(pairs), beer_matcher.predict_proba(pairs)
        )
        assert backend.predict_one(pairs[0]) == beer_matcher.predict_one(
            pairs[0]
        )

    def test_fit_refuses(self, served, beer_dataset):
        _, backend = served
        with pytest.raises(BackendError, match="cannot be trained"):
            backend.fit(beer_dataset)

    def test_columnar_is_bit_identical(self, served, beer_matcher,
                                       match_pair):
        _, backend = served
        batch = _constant_batch(match_pair, 13)
        np.testing.assert_array_equal(
            backend.predict_proba_columnar(batch),
            beer_matcher.predict_proba_columnar(batch),
        )

    def test_health_reports_connected(self, served):
        _, backend = served
        backend.capabilities()
        health = backend.health()
        assert health["available"] is True
        assert health["breaker"] == "closed"
        assert health["connected"] is True


class TestPipelining:
    def test_large_calls_split_into_inflight_chunks(self):
        matcher = RecordingMatcher()
        registry = MetricsRegistry()
        with MatcherServer(matcher, max_batch_size=8, workers=2) as server:
            backend = RemoteBackend(
                server.address, config=FAST_CONFIG, metrics=registry,
            )
            try:
                scores = backend.predict_proba_columnar(
                    named_batch(*(f"p{i}" for i in range(30)))
                )
            finally:
                backend.close()
        # 30 rows over an 8-row server max = 4 wire requests (their
        # completion order is the server pool's business)...
        assert sorted(matcher.batches) == [6, 8, 8, 8]
        # ...reassembled in order on the client.
        expected = np.concatenate(
            [np.linspace(0.0, 1.0, n) for n in (8, 8, 8, 6)]
        )
        np.testing.assert_array_equal(scores, expected)

    def test_out_of_order_responses_reassemble_in_order(self):
        matcher = RecordingMatcher(delay=0.3)
        with MatcherServer(matcher, max_batch_size=4, workers=2) as server:
            backend = RemoteBackend(server.address, config=FAST_CONFIG)
            try:
                # First chunk is slow; the second completes first on the
                # server (two workers), so its response frame arrives
                # out of order.
                batch = named_batch("slow", "a", "b", "c",
                                    "fast", "d", "e", "f")
                scores = backend.predict_proba_columnar(batch)
            finally:
                backend.close()
        assert matcher.completed[0] == "fast"  # out-of-order on the wire
        expected = np.concatenate(
            [np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4)]
        )
        np.testing.assert_array_equal(scores, expected)

    def test_columnar_calls_split_at_the_server_max(self, match_pair):
        matcher = RecordingMatcher()
        with MatcherServer(matcher, max_batch_size=5, workers=2) as server:
            backend = RemoteBackend(server.address, config=FAST_CONFIG)
            try:
                scores = backend.predict_proba_columnar(
                    _constant_batch(match_pair, 12)
                )
            finally:
                backend.close()
        assert sorted(matcher.batches) == [2, 5, 5]
        expected = np.concatenate(
            [np.linspace(0.0, 1.0, n) for n in (5, 5, 2)]
        )
        np.testing.assert_array_equal(scores, expected)

    def test_engine_chunk_splits_at_the_server_max(self, beer_matcher,
                                                   beer_dataset):
        # The engine sends one chunk; the client alone splits it to the
        # server's advertised maximum.
        pairs = list(beer_dataset)[:30]
        recorder = ColumnarRecorder(beer_matcher)
        with MatcherServer(recorder, max_batch_size=4, workers=2) as server:
            backend = RemoteBackend(server.address, config=FAST_CONFIG)
            try:
                engine = PredictionEngine(backend)
                scores = engine.predict_pairs(pairs)
            finally:
                backend.close()
        issued = engine.stats.calls_issued
        assert engine.stats.batches == 1
        assert len(recorder.batches) == -(-issued // 4)
        assert sum(recorder.batches) == issued
        in_process = PredictionEngine(beer_matcher).predict_pairs(pairs)
        assert scores.tobytes() == in_process.tobytes()

    def test_concurrent_callers_share_one_connection(self, served,
                                                     beer_matcher,
                                                     beer_dataset):
        _, backend = served
        pairs = list(beer_dataset)[:16]
        expected = beer_matcher.predict_proba(pairs)
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def call(slot: int) -> None:
            try:
                results[slot] = backend.predict_proba_columnar(
                    pairs_batch(pairs)
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for got in results.values():
            np.testing.assert_array_equal(got, expected)


class TestServerSurface:
    """Raw-socket conversations: the wire contract beyond the client."""

    @staticmethod
    def _dial(server):
        import socket as socket_module

        from repro.backends.base import PROTOCOL_VERSION
        from repro.backends.protocol import read_frame, send_frame

        sock = socket_module.create_connection(server.address, timeout=5.0)
        send_frame(sock, {"op": "hello", "id": 0,
                          "protocol": PROTOCOL_VERSION})
        hello = read_frame(sock)
        assert hello["ok"] is True
        return sock, send_frame, read_frame

    def test_pair_list_op_is_gone(self):
        # Protocol 3 carries columnar batches only: the pair-list
        # ``predict`` op of protocol 2 is an unknown op now.
        matcher = RecordingMatcher()
        with MatcherServer(matcher) as server:
            sock, send_frame, read_frame = self._dial(server)
            try:
                send_frame(sock, {"op": "predict", "id": 1,
                                  "pairs": list(range(3))})
                reply = read_frame(sock)
            finally:
                sock.close()
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"
        assert "unknown op" in reply["error"]
        assert matcher.batches == []  # never reached the model

    def test_columnar_op_without_a_batch_is_bad_request(self):
        matcher = RecordingMatcher()
        with MatcherServer(matcher) as server:
            sock, send_frame, read_frame = self._dial(server)
            try:
                send_frame(sock, {"op": "predict_columnar", "id": 1,
                                  "batch": ["p", "q"]})
                reply = read_frame(sock)
            finally:
                sock.close()
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"
        assert matcher.batches == []

    def test_oversized_columnar_batch_is_refused(self, match_pair):
        matcher = RecordingMatcher()
        with MatcherServer(matcher, max_batch_size=4) as server:
            sock, send_frame, read_frame = self._dial(server)
            try:
                send_frame(sock, {"op": "predict_columnar", "id": 1,
                                  "batch": _constant_batch(match_pair, 9)})
                reply = read_frame(sock)
            finally:
                sock.close()
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"
        assert "exceeds the advertised max" in reply["error"]
        assert matcher.batches == []  # never reached the model

    def test_ping_pongs(self, served):
        server, _ = served
        sock, send_frame, read_frame = self._dial(server)
        try:
            send_frame(sock, {"op": "ping", "id": 5})
            reply = read_frame(sock)
        finally:
            sock.close()
        assert reply == {"id": 5, "ok": True, "result": "pong"}

    def test_unknown_op_is_bad_request(self, served):
        server, _ = served
        sock, send_frame, read_frame = self._dial(server)
        try:
            send_frame(sock, {"op": "train", "id": 6})
            reply = read_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"

    @pytest.mark.parametrize("protocol", [0, 1, 2])
    def test_stale_protocol_hello_is_refused(self, served, protocol):
        import socket as socket_module

        from repro.backends.protocol import read_frame, send_frame

        server, _ = served
        sock = socket_module.create_connection(server.address, timeout=5.0)
        try:
            send_frame(sock, {"op": "hello", "id": 0, "protocol": protocol})
            reply = read_frame(sock)
        finally:
            sock.close()
        assert reply["ok"] is False
        assert reply["code"] == "backend_protocol"

    def test_per_pair_matcher_serves_columnar(self, match_pair):
        matcher = RecordingMatcher()  # no predict_proba_columnar
        with MatcherServer(matcher) as server:
            backend = RemoteBackend(server.address, config=FAST_CONFIG)
            try:
                scores = backend.predict_proba_columnar(
                    _constant_batch(match_pair, 3)
                )
            finally:
                backend.close()
        assert scores.shape == (3,)
        np.testing.assert_array_equal(scores, np.linspace(0.0, 1.0, 3))
        assert matcher.batches == [3]  # one materialized batch
