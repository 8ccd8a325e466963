"""The shard fleet's wire layer: framing, dialing, fleet configs, liveness.

Everything here is cheap — raw sockets and fakes, no shard processes and
no trained matchers — so the failure modes of the transport (corrupt
frames, slow accepts, skewed clocks) get exact, fast regression tests.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.service.router import HashRing
from repro.service.shard import ShardSpec
from repro.service.supervisor import _ShardHandle
from repro.service.transport import (
    SHARD_MAGIC,
    FleetConfig,
    FleetShard,
    FrameConnection,
    PipeShardTransport,
    TcpShardTransport,
    connect_with_retry,
    load_fleet_config,
    parse_fleet_config,
)


def _pair() -> tuple[FrameConnection, FrameConnection]:
    left, right = socket.socketpair()
    return FrameConnection(left), FrameConnection(right)


class TestFrameConnection:
    def test_round_trip_preserves_payload(self):
        a, b = _pair()
        try:
            message = {"kind": "request", "key": "k" * 64, "n": [1, 2, 3]}
            a.send(message)
            assert b.recv() == message
            b.send({"kind": "response", "ok": True})
            assert a.recv() == {"kind": "response", "ok": True}
        finally:
            a.close()
            b.close()

    def test_clean_eof_raises_eoferror_like_a_pipe(self):
        a, b = _pair()
        a.close()
        with pytest.raises(EOFError):
            b.recv()
        b.close()

    def test_bad_magic_is_connection_error_not_hang(self):
        left, right = socket.socketpair()
        conn = FrameConnection(right)
        # A frame stamped with a magic no sub-protocol uses: the reader
        # must classify the stream as corrupt and mark itself dead.
        left.sendall(b"XXXX" + struct.pack("!I", 4) + b"junk")
        with pytest.raises(ConnectionError, match="corrupt shard frame"):
            conn.recv()
        assert conn.closed
        left.close()
        conn.close()

    def test_oversized_claimed_length_is_rejected(self):
        left, right = socket.socketpair()
        conn = FrameConnection(right)
        # Correct magic, absurd length: must fail fast, never allocate.
        left.sendall(SHARD_MAGIC + struct.pack("!I", 2**32 - 1))
        with pytest.raises(ConnectionError, match="corrupt shard frame"):
            conn.recv()
        left.close()
        conn.close()

    def test_send_after_close_raises(self):
        a, b = _pair()
        a.close()
        with pytest.raises(OSError):
            a.send({"kind": "heartbeat"})
        b.close()


class TestConnectWithRetry:
    def test_retries_until_a_late_listener_accepts(self):
        """Satellite: a slow-starting host must not eat the whole budget.

        The listener only starts ~0.6s after the first dial, so the
        first attempt(s) fail with connection-refused; per-attempt
        timeouts plus jittered retries must land the connection well
        inside the overall budget.
        """
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        accepted = []

        def _late_listener() -> None:
            time.sleep(0.6)
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            sock, _ = listener.accept()
            accepted.append(sock)
            listener.close()

        thread = threading.Thread(target=_late_listener, daemon=True)
        thread.start()
        started = time.monotonic()
        sock = connect_with_retry(
            "127.0.0.1", port, attempt_timeout=0.5, budget=15.0, seed=3
        )
        elapsed = time.monotonic() - started
        sock.close()
        thread.join(5.0)
        assert accepted, "the late listener never accepted"
        assert 0.5 <= elapsed < 10.0
        accepted[0].close()

    def test_budget_exhaustion_is_connection_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="within"):
            connect_with_retry(
                "127.0.0.1", port, attempt_timeout=0.2, budget=0.7, seed=0
            )
        assert time.monotonic() - started < 5.0

    def test_stop_event_aborts_the_dial(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        stop = threading.Event()
        stop.set()
        with pytest.raises(ConnectionError):
            connect_with_retry(
                "127.0.0.1", port, attempt_timeout=0.2, budget=30.0, stop=stop
            )


class TestAdoptAck:
    def test_swallowed_handshake_fails_the_launch_fast(self):
        """A partition that accepts the connect but eats the adopt frame
        must fail ``launch`` within ``connect_timeout`` — not wedge the
        shard in "starting" until the supervisor's ready timeout.
        """
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        taken: list[socket.socket] = []

        def silent_accept() -> None:
            sock, _ = listener.accept()
            taken.append(sock)  # read nothing, reply with nothing

        thread = threading.Thread(target=silent_accept, daemon=True)
        thread.start()
        spec = ShardSpec.__new__(ShardSpec)
        object.__setattr__(spec, "shard_id", 0)
        transport = TcpShardTransport(
            "127.0.0.1", port, connect_timeout=0.4, connect_budget=2.0
        )
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="acknowledge"):
            transport.launch(spec)
        assert time.monotonic() - started < 5.0
        assert not transport.alive()
        listener.close()
        for sock in taken:
            sock.close()

    def test_fatal_first_reply_is_a_refused_launch(self):
        """A host refusing the handshake answers ``fatal`` — the launch
        must surface the refusal, not wait for an ack that never comes.
        """
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def refuse() -> None:
            sock, _ = listener.accept()
            conn = FrameConnection(sock)
            try:
                conn.recv()
                conn.send(
                    {"kind": "fatal", "code": "bad_request", "error": "nope"}
                )
            finally:
                conn.close()

        thread = threading.Thread(target=refuse, daemon=True)
        thread.start()
        spec = ShardSpec.__new__(ShardSpec)
        object.__setattr__(spec, "shard_id", 0)
        transport = TcpShardTransport(
            "127.0.0.1", port, connect_timeout=2.0, connect_budget=2.0
        )
        with pytest.raises(ConnectionError, match="refused adoption"):
            transport.launch(spec)
        thread.join(5.0)
        listener.close()


class TestFleetConfig:
    def test_parse_round_trip(self, tmp_path):
        data = {
            "shards": [
                {"id": 0, "host": "10.0.0.1", "port": 9301},
                {"id": 1, "host": "10.0.0.2", "port": 9301},
            ],
            "standbys": [{"host": "10.0.0.9", "port": 9301}],
            "quorum": 2,
        }
        fleet = parse_fleet_config(data)
        assert fleet.n_shards == 2
        assert fleet.shards[1].address == "10.0.0.2:9301"
        assert fleet.standbys[0].shard_id == -1
        assert fleet.quorum == 2
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(data))
        assert load_fleet_config(path) == fleet

    def test_ids_must_be_contiguous_from_zero(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(
                shards=(
                    FleetShard(shard_id=0, host="a", port=1),
                    FleetShard(shard_id=2, host="b", port=1),
                )
            )

    def test_quorum_must_be_achievable(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(
                shards=(FleetShard(shard_id=0, host="a", port=1),),
                quorum=2,
            )

    def test_empty_fleet_is_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fleet_config({"shards": []})

    def test_malformed_entries_are_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_fleet_config({"shards": [{"id": 0, "host": "a"}]})
        path = tmp_path / "fleet.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            load_fleet_config(path)


def _handle() -> _ShardHandle:
    spec = ShardSpec.__new__(ShardSpec)  # liveness needs no real spec
    return _ShardHandle(spec, PipeShardTransport())


class TestReceiverClockLiveness:
    """Satellite: heartbeat staleness is judged on *arrival* time only.

    A shard host with a wildly wrong wall clock (hours of skew, or a
    clock that jumps during the run) must be exactly as live as one with
    a perfect clock — the sender timestamp is a diagnostic, never an
    input to the staleness decision.
    """

    def test_liveness_ignores_sender_clock_entirely(self):
        handle = _handle()
        arrival = 1000.0
        wall = 2_000_000.0
        for skew in (0.0, -7200.0, 7200.0):  # perfect, behind, ahead
            handle.last_heartbeat = 0.0
            handle.record_heartbeat(
                arrival, sent_at=wall - skew, wall_now=wall
            )
            assert handle.last_heartbeat == arrival

    def test_skew_is_surfaced_as_a_diagnostic(self):
        handle = _handle()
        wall = 2_000_000.0
        handle.record_heartbeat(5.0, sent_at=wall - 3600.0, wall_now=wall)
        assert handle.clock_skew == pytest.approx(3600.0)
        handle.record_heartbeat(6.0, sent_at=wall + 120.0, wall_now=wall)
        assert handle.clock_skew == pytest.approx(-120.0)

    def test_heartbeat_without_timestamp_still_refreshes(self):
        # Pipe shards predate sent_at; their heartbeats must keep working.
        handle = _handle()
        handle.record_heartbeat(42.0)
        assert handle.last_heartbeat == 42.0
        assert handle.clock_skew is None


class TestPreferenceOrder:
    """Satellite: the ring's failover order is deterministic and total."""

    def test_preference_is_deterministic_and_complete(self):
        ring = HashRing(range(4), virtual_nodes=64)
        again = HashRing(range(4), virtual_nodes=64)
        for key in ("alpha", "beta", "gamma", "delta" * 16):
            order = ring.preference(key)
            assert order == again.preference(key)
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == ring.owner(key)

    def test_first_fallback_is_stable_across_calls(self):
        ring = HashRing(range(3), virtual_nodes=64)
        key = "some-request-key"
        fallback = ring.preference(key)[1]
        for _ in range(10):
            assert ring.preference(key)[1] == fallback
