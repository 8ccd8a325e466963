"""The standing shard host behind ``serve-shard``.

A :class:`ShardServer` is what runs on each machine of a cross-host
fleet: it listens on one TCP port and waits to be *adopted* by a
supervisor (:class:`~repro.service.supervisor.ShardedService` with a
``--fleet`` config).  The adopt handshake is the first frame on a new
connection — the pickled :class:`~repro.service.shard.ShardSpec`,
acknowledged with an ``adopted`` frame before the service build so the
supervisor can bound the handshake round-trip — after which the exact
pipe control protocol (request / cancel / drain / metrics / stats /
heartbeat / response) flows as ``RSF1`` frames through the shared
:class:`~repro.service.shard.ShardWorker` loop.

Lifecycle rules, chosen for partition tolerance:

* **One supervisor at a time, newest wins.**  A new connection preempts
  the old one (the old socket is closed; its worker loop sees EOF and
  returns).  After a network partition the supervisor's half-open
  connection may still look established on this side — the reconnect
  must not be refused because of it.
* **Disconnect keeps the service warm.**  Losing the supervisor does
  *not* drain: engines, caches and the store partition stay hot so a
  healed partition resumes in milliseconds.  Only an explicit drain
  message (or SIGTERM) shuts the service down — after a drain the
  process exits, mirroring a pipe shard.
* **Re-adoption reuses the warm service when the spec is identical**
  (same shard id, fingerprint, configs); any difference rebuilds from
  scratch.  A standby host adopting a *replaced* shard id builds cold —
  its store partition starts empty and rebuilds from warm misses, which
  is the correct trade against shipping another host's SQLite file.
* **The store lives host-side.**  The spec's ``store_dir`` is the
  *supervisor's* filesystem; it is replaced with this server's local
  ``store_dir`` (or ``None``) before the service is built.

The server itself holds no model: matcher weights arrive inside the spec
(blob) or via a shared ``serve-matcher`` backend address, exactly as for
pipe shards — and the fingerprint pinned in the spec is verified the
same way (:class:`~repro.exceptions.ArtifactMismatchError` on drift).
"""

from __future__ import annotations

import dataclasses
import logging
import socket
import threading

from repro.exceptions import error_code
from repro.service.shard import ShardSpec, ShardWorker, build_shard_service
from repro.service.transport import (
    SHARD_PROTOCOL_VERSION,
    FrameConnection,
)

__all__ = ["ShardServer"]

logger = logging.getLogger("repro.service.fleet")

#: Budget for draining the warm service when the server shuts down
#: without having received an explicit drain message (SIGTERM).
_SHUTDOWN_DRAIN_TIMEOUT = 5.0


class ShardServer:
    """One standing shard host: listen, get adopted, serve, survive.

    ``serve_forever`` blocks until an adopted supervisor sends a drain
    message or :meth:`close` is called (the ``serve-shard`` CLI wires
    SIGTERM to the latter).  Counters ``adoptions`` / ``warm_reuses`` /
    ``rebuilds`` expose the adoption history for tests and drills.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store_dir=None,
        store_config=None,
    ) -> None:
        self._store_dir = None if store_dir is None else str(store_dir)
        self._store_config = store_config
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._current_conn: FrameConnection | None = None
        self._spec: ShardSpec | None = None
        self._service = None
        self._store = None
        self.adoptions = 0
        self.warm_reuses = 0
        self.rebuilds = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- serving --------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept supervisors until drained or closed."""
        try:
            while not self._stop.is_set():
                try:
                    sock, peer = self._listener.accept()
                except OSError:
                    break  # listener closed under us: shutting down
                try:
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError:  # pragma: no cover
                    pass
                conn = FrameConnection(sock)
                with self._lock:
                    previous, self._current_conn = self._current_conn, conn
                if previous is not None:
                    # Newest supervisor wins: sever the old (possibly
                    # half-open) connection so its worker loop EOFs out.
                    logger.warning(
                        "shard host %s: new supervisor connection from %s "
                        "preempts the previous one",
                        self.address, peer,
                    )
                    previous.close()
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn, peer),
                    daemon=True,
                    name=f"shard-host-{self.port}-conn",
                )
                thread.start()
        finally:
            self.close()

    def _serve_connection(self, conn: FrameConnection, peer) -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            conn.close()
            return
        if (
            message.get("kind") != "adopt"
            or message.get("protocol") != SHARD_PROTOCOL_VERSION
            or not isinstance(message.get("spec"), ShardSpec)
        ):
            self._refuse(
                conn,
                "bad_request",
                f"expected adopt handshake (protocol "
                f"{SHARD_PROTOCOL_VERSION}), got "
                f"{message.get('kind')!r} v{message.get('protocol')!r}",
            )
            return
        # Acknowledge *before* the (possibly slow) service build: the
        # supervisor's launch blocks on this frame with a short timeout,
        # so a partition that swallowed the handshake fails its launch
        # fast instead of wedging the shard in "starting" until the
        # ready timeout.  Build failures still reach the supervisor as a
        # post-ack "fatal" frame through its reader loop.
        try:
            conn.send(
                {
                    "kind": "adopted",
                    "protocol": SHARD_PROTOCOL_VERSION,
                    "shard_id": message["spec"].shard_id,
                }
            )
        except OSError:
            conn.close()
            return
        # The spec's store_dir names a path on the *supervisor's*
        # filesystem; the partition must live on this host's disk.
        spec = dataclasses.replace(
            message["spec"],
            store_dir=self._store_dir,
            store_config=(
                self._store_config
                if self._store_config is not None
                else message["spec"].store_config
            ),
        )
        warm_before = self.warm_reuses
        try:
            service = self._adopt(spec)
        except Exception as error:  # noqa: BLE001 - relayed then dropped
            logger.error(
                "shard host %s: adoption of shard %d failed: %s",
                self.address, spec.shard_id, error,
            )
            self._refuse(conn, error_code(error), str(error))
            return
        logger.info(
            "shard host %s: adopted shard %d from %s (%s)",
            self.address, spec.shard_id, peer,
            "warm" if self.warm_reuses > warm_before else "cold",
        )
        worker = ShardWorker(spec, conn, service, on_disconnect="keep")
        reason = worker.run()
        conn.close()
        with self._lock:
            if self._current_conn is conn:
                self._current_conn = None
        if reason == "drained":
            # The supervisor decommissioned this shard; exit like a
            # pipe shard would.  _handle_drain already closed the
            # service, so the warm state is gone by design.
            with self._lock:
                self._service = None
            self._close_store()
            self._stop.set()
            self._close_listener()

    def _refuse(self, conn: FrameConnection, code: str, error: str) -> None:
        try:
            conn.send({"kind": "fatal", "code": code, "error": error})
        except OSError:
            pass
        conn.close()

    # -- adoption -------------------------------------------------------

    def _adopt(self, spec: ShardSpec):
        """The service for *spec*: warm when identical, rebuilt otherwise."""
        with self._lock:
            self.adoptions += 1
            if (
                self._service is not None
                and not self._service.closed
                and self._spec == spec
            ):
                self.warm_reuses += 1
                return self._service
            stale_service, stale_store = self._service, self._store
            self._service = None
            self._store = None
        if stale_service is not None and not stale_service.closed:
            stale_service.close(drain=False)
        if stale_store is not None:
            try:
                stale_store.close()
            except OSError:  # pragma: no cover - already closed
                pass
        service, store = build_shard_service(spec)
        with self._lock:
            self.rebuilds += 1
            self._spec = spec
            self._service = service
            self._store = store
        return service

    # -- shutdown -------------------------------------------------------

    def _close_listener(self) -> None:
        # shutdown() before close(): closing alone does not wake a
        # thread blocked in accept(), and its freed fd could be reused
        # by a new connection — the "closed" server would keep serving.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _close_store(self) -> None:
        with self._lock:
            store, self._store = self._store, None
        if store is not None:
            try:
                store.close()
            except OSError:  # pragma: no cover
                pass

    def close(self) -> None:
        """Stop accepting, sever the supervisor, drain the warm service."""
        if self._stop.is_set() and self._service is None:
            self._close_listener()
            return
        self._stop.set()
        self._close_listener()
        with self._lock:
            conn, self._current_conn = self._current_conn, None
            service, self._service = self._service, None
        if conn is not None:
            conn.close()
        if service is not None and not service.closed:
            service.close(drain=True, drain_timeout=_SHUTDOWN_DRAIN_TIMEOUT)
        self._close_store()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
