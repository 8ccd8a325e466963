"""The subprocess-backed reference matcher server.

One process owns one trained matcher and serves
``predict_proba_columnar`` (the ``predict_columnar`` op) over the frame
protocol to any number of clients — the deployment shape where N
service shards share a model too heavy to replicate per shard.  Run it
standalone via the
``serve-matcher`` CLI (``repro-em serve-matcher --model-dir …``), or
in-process through :class:`MatcherServer` (tests, benchmarks).

Concurrency model: an accept thread spawns one reader thread per
connection; each predict request is dispatched to a small shared worker
pool and its response is written back **whenever it finishes** — out of
order by design, which is what lets a pipelining client keep several
batches in flight on one connection.  A per-connection send lock keeps
frames contiguous.

The server carries no fault-injection hooks: the failure-taxonomy tests
and drills inject faults from outside it, by killing its process or by
putting a stream-mangling TCP proxy between it and the client.
"""

from __future__ import annotations

import logging
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends.base import (
    DEFAULT_MAX_BATCH_SIZE,
    PROTOCOL_VERSION,
    BackendCapabilities,
)
from repro.backends.protocol import read_frame, send_frame
from repro.core.columnar import ColumnarPairBatch
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import (
    BackendProtocolError,
    ConfigurationError,
    ServiceError,
    error_fields,
)
from repro.matchers.base import columnar_scorer

__all__ = ["MatcherServer"]

logger = logging.getLogger(__name__)


class MatcherServer:
    """Serve one trained matcher over the backend frame protocol.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    ``(host, port)``.  The matcher must already be trained — its
    fingerprint is computed once at startup and advertised in every
    handshake, because clients pin it for the life of their caches.
    """

    def __init__(
        self,
        matcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        workers: int = 4,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._score_batch = columnar_scorer(matcher)
        self.capabilities = BackendCapabilities(
            fingerprint=matcher_fingerprint(matcher),
            max_batch_size=int(max_batch_size),
            matcher_class=type(matcher).__name__,
        )
        self._host = host
        self._port = int(port)
        self._workers = workers
        self._listener: socket.socket | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()
        self.address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address."""
        listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="matcher-server"
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="matcher-accept"
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Block until :meth:`close` (the CLI entry point's main thread)."""
        if self._listener is None:
            self.start()
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop live connections, release the pool."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
        with self._conn_lock:
            doomed = list(self._connections)
            self._connections.clear()
        for sock in doomed:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def __enter__(self) -> "MatcherServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept / per-connection loops ---------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conn_lock:
                if self._closed.is_set():
                    sock.close()
                    break
                self._connections.add(sock)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(sock, peer),
                daemon=True, name="matcher-conn",
            ).start()

    def _discard(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections.discard(sock)
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _serve_connection(self, sock: socket.socket, peer) -> None:
        send_lock = threading.Lock()
        try:
            while not self._closed.is_set():
                try:
                    message = read_frame(sock)
                except BackendProtocolError as error:
                    logger.warning("dropping %s: %s", peer, error)
                    break
                except (ConnectionError, OSError):
                    break  # client went away
                self._dispatch(sock, send_lock, message)
        finally:
            self._discard(sock)

    # -- request handling ----------------------------------------------

    def _dispatch(self, sock, send_lock, message: dict) -> None:
        op = message.get("op")
        request_id = message.get("id")
        if op == "hello":
            self._respond(sock, send_lock, self._handle_hello(message))
            return
        if op == "ping":
            self._respond(sock, send_lock, {"id": request_id, "ok": True,
                                            "result": "pong"})
            return
        if op != "predict_columnar":
            self._respond(sock, send_lock, {
                "id": request_id,
                **error_fields(ServiceError(f"unknown op {op!r}")),
            })
            return
        assert self._pool is not None
        self._pool.submit(self._predict, sock, send_lock, message)

    def _handle_hello(self, message: dict) -> dict:
        client_protocol = message.get("protocol")
        if client_protocol != PROTOCOL_VERSION:
            return {
                "id": message.get("id"),
                **error_fields(BackendProtocolError(
                    f"client speaks protocol {client_protocol!r}, this "
                    f"server needs {PROTOCOL_VERSION}"
                )),
            }
        return {
            "id": message.get("id"), "ok": True,
            "capabilities": self.capabilities.to_dict(),
        }

    def _predict(self, sock, send_lock, message: dict) -> None:
        request_id = message.get("id")
        try:
            result = self._score(message)
            response = {"id": request_id, "ok": True, "result": result}
        except Exception as error:  # noqa: BLE001 - relayed to the client
            response = {"id": request_id, **error_fields(error)}
        self._respond(sock, send_lock, response)

    def _score(self, message: dict) -> np.ndarray:
        batch = message.get("batch")
        if not isinstance(batch, ColumnarPairBatch):
            raise ServiceError("predict_columnar needs a columnar batch")
        if batch.n_rows > self.capabilities.max_batch_size:
            raise ServiceError(
                f"batch of {batch.n_rows} exceeds the advertised max of "
                f"{self.capabilities.max_batch_size}"
            )
        return np.asarray(self._score_batch(batch), dtype=np.float64)

    # -- response path --------------------------------------------------

    def _respond(self, sock, send_lock, response: dict) -> None:
        try:
            with send_lock:
                send_frame(sock, response)
        except (ConnectionError, OSError):
            self._discard(sock)
