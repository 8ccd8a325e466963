"""The pipelined remote matcher client.

:class:`RemoteBackend` speaks the length-prefixed frame protocol
(:mod:`repro.backends.protocol`) to a matcher server and is itself an
:class:`~repro.matchers.base.EntityMatcher`: the engine, the explainers
and the service take it like a matcher whose model lives elsewhere.

**Pipelining.**  One TCP connection carries many in-flight batches at
once: a large columnar batch is split into server-sized chunks
that are *all written immediately* (bounded by ``max_in_flight`` window
slots), and concurrent service workers share the same connection the
same way.  A dedicated reader thread resolves responses **out of order**
by request id, so one slow batch never convoys the others and the
network round-trip overlaps with server compute — this is what keeps
remote throughput within a small factor of in-process.

**Fault semantics.**  The client is a transport with a breaker; the
engine's guard (``EngineConfig.guard``, ``--max-retries``) owns retries
for every matcher.  Each call is one wire attempt: reconnect if the
connection is dead, send every chunk, wait for the responses within
``call_timeout`` and the ambient :class:`~repro.core.deadline.Deadline`.
A failure (refused, mid-frame disconnect, timeout) drops the connection
and raises a retryable error, so the next attempt redials.  ``_BREAKER``,
a retry-free :class:`~repro.core.guard.MatcherGuard`, counts failures and
feeds ``/healthz``; while open it fails fast with a ``guard_no_retry``
:class:`~repro.exceptions.BackendUnavailableError`, as a
:class:`~repro.exceptions.BackendProtocolError` (the wrong peer) does.

The server's model fingerprint is pinned at the first handshake; a
reconnect that finds a *different* fingerprint refuses to proceed, since
every cache key downstream was minted under the old identity.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from repro.backends.base import BackendCapabilities, PROTOCOL_VERSION
from repro.backends.protocol import read_frame, send_frame
from repro.core.columnar import ColumnarPairBatch, pairs_batch
from repro.core.deadline import active_scope, checkpoint
from repro.core.guard import GuardConfig, GuardStats, MatcherGuard
from repro.exceptions import (
    BackendError,
    BackendProtocolError,
    BackendUnavailableError,
    ConfigurationError,
    MatcherTimeoutError,
    MatcherUnavailableError,
    ReproError,
    error_from_code,
)
from repro.matchers.base import EntityMatcher
from repro.obs.metrics import (
    GAUGE,
    HISTOGRAM,
    ROW_BUCKETS,
    Metric,
    MetricsRegistry,
    StatsInstruments,
    stat,
)

__all__ = ["RemoteBackendConfig", "RemoteBackend", "parse_address"]

#: Wait-slice while blocking on a response or a window slot: the longest
#: a deadline expiry or cancellation goes unnoticed mid-wait.
_WAIT_SLICE = 0.05

#: The client's breaker: no retries (the engine's guard owns them),
#: engaged even at zero retries, the default trip and cooldown.
_BREAKER = GuardConfig(always_active=True)

#: Buckets for the per-call round-trip-time histogram (seconds).
_RTT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def parse_address(address) -> tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` to a tuple."""
    if isinstance(address, tuple) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str):
        host, separator, port = address.rpartition(":")
        if separator and host and port.isdigit():
            return host, int(port)
    raise ConfigurationError(
        f"backend address must be 'host:port' or (host, port), got {address!r}"
    )


@dataclass(frozen=True)
class RemoteBackendConfig:
    """Knobs of the remote matcher client.

    Picklable by construction: a :class:`~repro.service.shard.ShardSpec`
    carries one into each shard process so every shard dials the same
    server with the same timeouts and window.
    """

    #: Seconds to establish the TCP connection + handshake.
    connect_timeout: float = 10.0
    #: Seconds one round-trip may wait for its responses;
    #: ``None`` leaves only the ambient request deadline.
    call_timeout: float | None = 60.0
    #: Window: wire requests in flight on the connection at once.
    max_in_flight: int = 8

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0:
            raise ConfigurationError(
                f"connect_timeout must be > 0, got {self.connect_timeout}"
            )
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ConfigurationError(
                f"call_timeout must be > 0, got {self.call_timeout}"
            )
        if self.max_in_flight < 1:
            raise ConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )


class _Pending:
    """One in-flight wire request awaiting its response frame."""

    __slots__ = ("event", "message", "error", "sent_at")

    def __init__(self, sent_at: float) -> None:
        self.event = threading.Event()
        self.message: dict | None = None
        self.error: Exception | None = None
        self.sent_at = sent_at

    def resolve(self, message: dict) -> None:
        self.message = message
        self.event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.event.set()


class _Connection:
    """One live socket: send lock, reader thread, pending table, window."""

    def __init__(self, sock: socket.socket, capabilities: BackendCapabilities,
                 window: int) -> None:
        self.sock = sock
        self.capabilities = capabilities
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.window = threading.Semaphore(window)
        self.dead = False
        self.death: Exception | None = None
        self.next_id = 1

    def register(self, sent_at: float) -> tuple[int, _Pending]:
        with self.lock:
            if self.dead:
                raise self.death or ConnectionError("backend connection lost")
            request_id = self.next_id
            self.next_id += 1
            pending = _Pending(sent_at)
            self.pending[request_id] = pending
            return request_id, pending

    def pop(self, request_id) -> _Pending | None:
        with self.lock:
            return self.pending.pop(request_id, None)

    def fail_all(self, error: Exception) -> list[_Pending]:
        """Mark the connection dead and fail every waiter; idempotent."""
        with self.lock:
            if self.dead:
                return []
            self.dead = True
            self.death = error
            doomed = list(self.pending.values())
            self.pending.clear()
        for pending in doomed:
            pending.fail(error)
            self.window.release()
        return doomed


@dataclass
class BackendStats:
    """Counter snapshot of one :class:`RemoteBackend`.

    Each field declares the instrument it reads, labeled
    ``component="backend"`` and the server ``address``; the client's
    guard exports its counters under the same labels.
    """

    requests: int = stat("repro_backend_requests_total", "Wire requests sent")
    failures: int = stat(
        "repro_backend_failures_total",
        "Round-trips that raised",
    )
    reconnects: int = stat(
        "repro_backend_reconnects_total",
        "Connections re-established after a loss",
    )
    inflight: int = stat(
        "repro_backend_inflight",
        "Wire requests currently awaiting a response", GAUGE,
    )

    #: Distributions, exported but not part of the snapshot.
    registry_only: ClassVar[tuple[Metric, ...]] = (
        Metric(
            "repro_backend_batch_width", "Rows per wire request",
            HISTOGRAM, attr="batch_width", buckets=ROW_BUCKETS,
        ),
        Metric(
            "repro_backend_rtt_seconds", "Round-trip time of one wire request",
            HISTOGRAM, attr="rtt", buckets=_RTT_BUCKETS,
        ),
    )

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class RemoteBackend(EntityMatcher):
    """A matcher served over a socket: a transport with a breaker.

    Scores like any :class:`EntityMatcher`, bit-identical to the model in
    the server process; training is the server owner's decision, so
    :meth:`fit` refuses.  Each call is one wire attempt; retries are the
    wrapping engine's.  Thread-safe: service workers may call
    concurrently; their wire requests interleave on the shared
    connection and complete out of order.
    """

    def __init__(
        self,
        address,
        config: RemoteBackendConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.address = parse_address(address)
        self.config = config or RemoteBackendConfig()
        registry = metrics if metrics is not None else MetricsRegistry()
        self._instruments = StatsInstruments(
            registry, BackendStats, "backend", address="%s:%d" % self.address
        )
        # Breaker counters export under the backend's own labels.
        self._guard = MatcherGuard(
            config=_BREAKER,
            instruments=StatsInstruments(
                registry, GuardStats, **self._instruments.labels
            ),
        )
        self._conn_lock = threading.Lock()
        self._conn: _Connection | None = None
        self._pinned_fingerprint: str | None = None
        self._ever_connected = False
        self._closed = False

    @property
    def guard_stats(self) -> GuardStats:
        """Failure and breaker counters of this client's guard."""
        return self._guard.stats

    # -- matcher surface -----------------------------------------------

    def fit(self, dataset) -> RemoteBackend:
        """Refuses: the model is trained where it is served."""
        raise BackendError(
            "a served matcher cannot be trained through its client; "
            "train where the model lives and restart the backend"
        )

    def predict_proba(self, pairs: Sequence) -> np.ndarray:
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return self.predict_proba_columnar(pairs_batch(pairs))

    def predict_proba_columnar(self, batch: ColumnarPairBatch) -> np.ndarray:
        return self._guarded(batch, batch.n_rows)

    # -- backend surface -----------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        """The server's handshake capabilities (connects lazily)."""
        conn = self._conn
        if conn is not None and not conn.dead:
            return conn.capabilities
        # First contact (or reconnect) counts against the breaker too.
        return self._guarded(None, 0).capabilities

    def health(self) -> dict:
        """Liveness view for /healthz: breaker state and connection."""
        conn = self._conn
        state = self._guard.state
        return {
            "available": state != "open",
            "breaker": state,
            "connected": conn is not None and not conn.dead,
            "address": "%s:%d" % self.address,
            "reconnects": int(self._instruments.reconnects.value),
        }

    def close(self) -> None:
        """Drop the connection; later calls raise (idempotent)."""
        self._closed = True
        with self._conn_lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.fail_all(BackendUnavailableError("backend client closed"))
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - best effort
                pass

    # -- guarded round-trips -------------------------------------------

    def _guarded(self, batch, size: int):
        """One round-trip scoring *batch* behind the breaker; ``None``
        only connects and returns the live connection."""
        try:
            return self._guard.call(self._roundtrip, batch, size)
        except MatcherUnavailableError as error:
            # The breaker lives in this client; surface it under the
            # backend taxonomy so /healthz and clients see the layer
            # that actually failed; the engine must not retry it.
            self._instruments.failures.inc()
            unavailable = BackendUnavailableError(
                f"matcher backend {self.address[0]}:{self.address[1]} "
                f"unavailable: {error}"
            )
            unavailable.guard_no_retry = True
            raise unavailable from error
        except (BackendUnavailableError, MatcherTimeoutError,
                BackendProtocolError):
            self._instruments.failures.inc()
            raise

    def _roundtrip(self, batch):
        if self._closed:
            raise BackendUnavailableError("backend client is closed")
        try:
            conn = self._ensure_connection()
        except (ConnectionError, OSError, socket.timeout) as error:
            raise BackendUnavailableError(
                f"cannot reach matcher backend at "
                f"{self.address[0]}:{self.address[1]}: {error}"
            ) from error
        if batch is None:
            return conn
        timeout_at = self._timeout_at()
        try:
            issued = [self._submit(conn, chunk, timeout_at)
                      for chunk in self._split(batch, conn.capabilities)]
            parts = [self._await(conn, pending, timeout_at)
                     for pending in issued]
        except (ConnectionError, OSError) as error:
            self._drop_connection(conn, error)
            raise BackendUnavailableError(
                f"connection to matcher backend "
                f"{self.address[0]}:{self.address[1]} lost mid-call: {error}"
            ) from error
        except BackendProtocolError as error:
            self._drop_connection(conn, error)
            raise
        except MatcherTimeoutError as error:
            # A hung server cannot be resynchronized frame-by-frame;
            # drop the pipe so the retry starts on a fresh connection.
            self._drop_connection(conn, error)
            raise
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    # -- connection management -----------------------------------------

    def _ensure_connection(self) -> _Connection:
        with self._conn_lock:
            conn = self._conn
            if conn is not None and not conn.dead:
                return conn
            sock = socket.create_connection(
                self.address, timeout=self.config.connect_timeout
            )
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send_frame(sock, {"op": "hello", "id": 0,
                                  "protocol": PROTOCOL_VERSION})
                reply = read_frame(sock)
            except BaseException:
                sock.close()
                raise
            capabilities = self._check_handshake(sock, reply)
            sock.settimeout(None)
            conn = _Connection(sock, capabilities, self.config.max_in_flight)
            reader = threading.Thread(
                target=self._reader, args=(conn,), daemon=True,
                name="backend-reader",
            )
            reader.start()
            if self._ever_connected:
                self._instruments.reconnects.inc()
            self._ever_connected = True
            self._conn = conn
            return conn

    def _check_handshake(self, sock: socket.socket,
                         reply: dict) -> BackendCapabilities:
        if not reply.get("ok") or "capabilities" not in reply:
            sock.close()
            raise BackendProtocolError(
                f"backend handshake rejected: {reply.get('error', reply)!r}"
            )
        capabilities = BackendCapabilities.from_dict(reply["capabilities"])
        if capabilities.protocol_version != PROTOCOL_VERSION:
            sock.close()
            raise BackendProtocolError(
                f"backend speaks protocol "
                f"{capabilities.protocol_version}, this client needs "
                f"{PROTOCOL_VERSION}"
            )
        if (self._pinned_fingerprint is not None
                and capabilities.fingerprint != self._pinned_fingerprint):
            sock.close()
            raise BackendProtocolError(
                f"backend model changed across reconnect (was "
                f"{self._pinned_fingerprint[:12]}…, now "
                f"{capabilities.fingerprint[:12]}…); every cached "
                f"explanation is keyed by the old model — restart the "
                f"service against the new model instead"
            )
        self._pinned_fingerprint = capabilities.fingerprint
        return capabilities

    def _drop_connection(self, conn: _Connection, error: Exception) -> None:
        conn.fail_all(error if isinstance(error, ReproError)
                      else ConnectionError(str(error)))
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        with self._conn_lock:
            if self._conn is conn:
                self._conn = None

    def _reader(self, conn: _Connection) -> None:
        """Resolve response frames to their waiters, in arrival order."""
        instruments = self._instruments
        try:
            while True:
                message = read_frame(conn.sock)
                pending = conn.pop(message.get("id"))
                if pending is None:
                    continue  # waiter timed out / was abandoned
                instruments.rtt.observe(
                    max(0.0, time.monotonic() - pending.sent_at)
                )
                instruments.inflight.inc(-1)
                conn.window.release()
                pending.resolve(message)
        except BackendProtocolError as error:
            conn.fail_all(error)
        except (ConnectionError, OSError) as error:
            conn.fail_all(ConnectionError(str(error)))

    # -- request plumbing ----------------------------------------------

    @staticmethod
    def _split(batch, capabilities: BackendCapabilities) -> list:
        """Server-sized chunks of a batch (the server refuses a frame
        above its advertised max)."""
        chunk = capabilities.max_batch_size
        if batch.n_rows <= chunk:
            return [batch]
        return [batch.slice_rows(i, i + chunk)
                for i in range(0, batch.n_rows, chunk)]

    def _timeout_at(self) -> float | None:
        timeout = self.config.call_timeout
        at = None if timeout is None else time.monotonic() + timeout
        deadline, _ = active_scope()
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining is not None:
                ambient = time.monotonic() + max(0.0, remaining)
                at = ambient if at is None else min(at, ambient)
        return at

    def _submit(self, conn: _Connection, batch,
                timeout_at: float | None) -> _Pending:
        # A window slot bounds in-flight frames; waiting for one polls
        # the scope so cancellation/deadline interrupts the backpressure.
        while not conn.window.acquire(timeout=_WAIT_SLICE):
            checkpoint("backend window")
            if conn.dead:
                raise conn.death or ConnectionError("backend connection lost")
            if timeout_at is not None and time.monotonic() >= timeout_at:
                raise MatcherTimeoutError(
                    f"timed out waiting for a backend window slot "
                    f"({self.config.max_in_flight} in flight)"
                )
        try:
            request_id, pending = conn.register(time.monotonic())
            with conn.send_lock:
                send_frame(conn.sock, {"op": "predict_columnar",
                                       "id": request_id, "batch": batch})
        except BaseException:
            conn.window.release()
            raise
        self._instruments.requests.inc()
        self._instruments.batch_width.observe(float(batch.n_rows))
        self._instruments.inflight.inc()
        return pending

    def _await(self, conn: _Connection, pending: _Pending,
               timeout_at: float | None) -> np.ndarray:
        while not pending.event.wait(_WAIT_SLICE):
            checkpoint("backend response")
            if timeout_at is not None and time.monotonic() >= timeout_at:
                raise MatcherTimeoutError(
                    f"backend call exceeded "
                    f"{self.config.call_timeout:.3g}s"
                    if self.config.call_timeout is not None
                    else "backend call exceeded its deadline"
                )
        if pending.error is not None:
            raise pending.error
        message = pending.message or {}
        if not message.get("ok"):
            raise _server_error(
                message.get("code"),
                message.get("error", "backend error"),
                message.get("retry_after"),
            )
        result = message.get("result")
        array = np.asarray(result, dtype=np.float64)
        return array


def _server_error(code, message, retry_after=None) -> ReproError:
    """The taxonomy error the matcher server reported by wire code.

    Unknown and ``internal`` codes surface as :class:`BackendError`.
    """
    text = f"matcher server: {message}"
    error = error_from_code(code, text, retry_after)
    if error is None or type(error) is ReproError:
        return BackendError(text)
    return error
