"""One shard of the multi-process explanation service.

A shard is a separate OS process owning a complete single-process serving
stack — a guarded :class:`~repro.core.engine.PredictionEngine`, a matcher
unpickled from the spec (or loaded from a model artifact), and its own
SQLite store partition under the shared store directory.  The existing
:class:`~repro.service.service.ExplanationService` *is* the shard's inner
loop, untouched: coalescing, admission control, deadlines and drain all
work per shard exactly as they do single-process, which is what keeps
``--shards 1`` bit-identical to the pre-shard service.

The shard talks to its parent over one duplex control pipe
(:func:`multiprocessing.Pipe`) carrying small typed dict messages:

========== =========== ==================================================
direction  kind        meaning
========== =========== ==================================================
parent →   request     an :class:`~repro.service.request.ExplainRequest`
                       plus the parent's correlation id
parent →   cancel      detach the waiter of an earlier request id
parent →   drain       stop admission, finish queued work within the
                       budget, reply ``drained`` and exit
parent →   metrics     reply ``info`` with ``registry.collect()`` families
parent →   stats       reply ``info`` with the service stats payload
child  →   ready       the service is built; requests may be routed here
child  →   heartbeat   liveness + health summary, every
                       ``spec.heartbeat_interval`` seconds
child  →   response    result payload or error taxonomy for a request id
child  →   info        reply to a metrics/stats round trip
child  →   drained     drain summary + final stats; the process exits next
========== =========== ==================================================

The same message protocol runs unchanged over a framed TCP connection
when the shard is a standing ``serve-shard`` process on another host
(:mod:`repro.service.fleet` / :mod:`repro.service.transport`); only the
disconnect policy differs — see :class:`ShardWorker`.

Crash semantics: a *pipe* shard never tries to outlive a broken pipe —
when the parent disappears (EOF on the control pipe) the shard drains
quickly and exits, so an orphaned shard cannot hold the store partition
open.  A *standing* shard host instead keeps its service warm across a
lost supervisor connection, because across machines a disconnect is as
likely a network partition as a dead supervisor.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.backends.client import RemoteBackend, RemoteBackendConfig
from repro.config import ServiceConfig, StoreConfig
from repro.core.engine import EngineConfig
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import (
    ArtifactMismatchError,
    ConfigurationError,
    error_fields,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore, shard_store_dir

logger = logging.getLogger("repro.service.shard")

#: How long a shard waits for queued work during a pipe-loss drain.
_ORPHAN_DRAIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard process needs, picklable for the fork server.

    The matcher travels as pickle bytes (``matcher_blob``) so a pipe
    shard — forked from the fork server, so sharing no memory with the
    supervisor — rebuilds the exact serving matcher without retraining;
    the fingerprint, and therefore every request key, is identical on
    both sides.  Alternatively ``backend_address`` points the shard at a
    shared ``serve-matcher`` process and no blob travels at all — N
    shards, one model.  Either way, when ``fingerprint`` is set the
    shard refuses to serve weights whose identity differs from what the
    parent admitted (:class:`~repro.exceptions.ArtifactMismatchError`):
    request keys, caches and the store partition are all minted under
    that fingerprint.  ``store_dir`` is the *shared* root; the shard derives
    its own partition from its id.
    """

    shard_id: int
    matcher_blob: bytes | None = None
    service_config: ServiceConfig = field(default_factory=ServiceConfig)
    engine_config: EngineConfig | None = None
    store_dir: str | None = None
    store_config: StoreConfig | None = None
    heartbeat_interval: float = 0.5
    #: ``host:port`` of a shared matcher server; exclusive with
    #: ``matcher_blob``.
    backend_address: str | None = None
    backend_config: RemoteBackendConfig | None = None
    #: Expected model fingerprint; serving anything else is a startup
    #: failure, never a silent identity change.
    fingerprint: str | None = None


def build_shard_service(
    spec: ShardSpec,
) -> tuple[ExplanationService, "ExplanationStore | None"]:
    """Build one shard's complete serving stack from its spec.

    Shared by the forked pipe shard (:func:`shard_main`) and the
    standing ``serve-shard`` host (:class:`~repro.service.fleet.ShardServer`)
    so the two deployment shapes cannot drift: same matcher
    construction + fingerprint verification, same store partition
    layout, same inner :class:`ExplanationService`.
    """
    registry = MetricsRegistry()
    matcher = _build_matcher_source(spec, registry)
    store = None
    if spec.store_dir is not None:
        store = ExplanationStore(
            shard_store_dir(spec.store_dir, spec.shard_id),
            spec.store_config,
            metrics=registry,
        )
    service = ExplanationService(
        matcher,
        store=store,
        config=spec.service_config,
        engine_config=spec.engine_config,
        metrics=registry,
    )
    return service, store


def shard_main(spec: ShardSpec, conn) -> None:
    """Entry point of a shard process (the ``Process`` target).

    Builds the inner service, reports ready, then serves the control
    pipe until a drain message or pipe loss.  Exit code 0 means a clean
    drain; anything else is a crash the supervisor handles.
    """
    # SIGINT goes to the whole foreground process group on Ctrl-C; the
    # parent coordinates shutdown over the pipe, so shards ignore it.
    # SIGTERM (Process.terminate(), or a group-wide TERM from an init
    # system) must still work: it unwinds the recv loop via SystemExit
    # into the same quick-drain path as pipe loss.  SIG_IGN here would
    # hang a crashing parent forever in its terminate-and-join cleanup.
    def _on_sigterm(signum, frame):
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    service, store = build_shard_service(spec)
    worker = ShardWorker(spec, conn, service)
    try:
        worker.run()
    finally:
        if store is not None:
            store.close()
        try:
            conn.close()
        except OSError:
            pass


def _build_matcher_source(spec: ShardSpec, registry: MetricsRegistry):
    """The matcher (or remote backend) this shard serves from.

    Blob mode unpickles the parent's matcher and — when the spec pins a
    fingerprint — verifies the rebuilt object still *is* that model.
    Backend mode builds a :class:`RemoteBackend`; the admitted
    fingerprint is checked against the server's handshake, so a shard
    can never silently serve a model other than the one the parent
    routed keys for.
    """
    if spec.backend_address is not None:
        backend = RemoteBackend(
            spec.backend_address,
            config=spec.backend_config,
            metrics=registry,
        )
        if spec.fingerprint is not None:
            served = backend.capabilities().fingerprint
            if served != spec.fingerprint:
                backend.close()
                raise ArtifactMismatchError(
                    f"backend at {spec.backend_address} serves fingerprint "
                    f"{served[:12]}…, shard {spec.shard_id} was admitted "
                    f"for {spec.fingerprint[:12]}…; refusing to serve "
                    f"stale weights"
                )
        return backend
    if spec.matcher_blob is None:
        raise ConfigurationError(
            f"shard {spec.shard_id} has neither a matcher blob nor a "
            f"backend address"
        )
    matcher = pickle.loads(spec.matcher_blob)
    if spec.fingerprint is not None:
        rebuilt = matcher_fingerprint(matcher)
        if rebuilt != spec.fingerprint:
            raise ArtifactMismatchError(
                f"shard {spec.shard_id} rebuilt a matcher with fingerprint "
                f"{rebuilt[:12]}…, expected {spec.fingerprint[:12]}…; "
                f"refusing to serve stale weights"
            )
    return matcher


class ShardWorker:
    """The shard-side control loop around one inner service.

    Transport-agnostic: ``conn`` is either the child end of a duplex
    pipe or a :class:`~repro.service.transport.FrameConnection` — both
    speak ``send``/``recv``/``EOFError``.  ``on_disconnect`` decides
    what a lost supervisor means: a forked pipe shard ``"drain"``\\ s
    and exits (an orphan must not squat on the store partition), while a
    standing ``serve-shard`` host ``"keep"``\\ s the warm service for the
    supervisor's reconnect — that is what makes a healed network
    partition cheap.
    """

    def __init__(
        self,
        spec: ShardSpec,
        conn,
        service: ExplanationService,
        on_disconnect: str = "drain",
    ):
        self.spec = spec
        self.conn = conn
        self.service = service
        self.on_disconnect = on_disconnect
        self._send_lock = threading.Lock()
        #: Parent correlation id → inner request key, for cancels.
        self._keys: dict[int, str] = {}
        self._keys_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()

    # -- plumbing ------------------------------------------------------

    def _send(self, message: dict) -> bool:
        with self._send_lock:
            try:
                self.conn.send(message)
                return True
            except (OSError, ValueError, BrokenPipeError):
                return False

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.spec.heartbeat_interval):
            status, health = self.service.health()
            self._send(
                {
                    "kind": "heartbeat",
                    "shard": self.spec.shard_id,
                    "status": status,
                    "health": health,
                    # Sender wall clock, for *skew diagnostics only*.
                    # Liveness is judged by the supervisor's own arrival
                    # clock — hosts do not share a clock, and monotonic
                    # clocks are not even comparable across processes on
                    # one machine.
                    "sent_at": time.time(),
                }
            )

    # -- request handling ----------------------------------------------

    def _respond_error(self, rid: int, error: BaseException) -> None:
        self._send({"kind": "response", "id": rid, **error_fields(error)})

    def _handle_request(self, rid: int, request) -> None:
        try:
            future = self.service.submit(request, block=False)
        except Exception as error:  # noqa: BLE001 - relayed to the parent
            self._respond_error(rid, error)
            return
        with self._keys_lock:
            self._keys[rid] = self.service.key_for(request)

        def _done(done_future, rid=rid) -> None:
            with self._keys_lock:
                self._keys.pop(rid, None)
            try:
                payload = done_future.result()
            except BaseException as error:  # noqa: BLE001 - taxonomy relay
                self._respond_error(rid, error)
            else:
                self._send(
                    {"kind": "response", "id": rid, "ok": True, "result": payload}
                )

        future.add_done_callback(_done)

    def _handle_cancel(self, rid: int) -> None:
        with self._keys_lock:
            key = self._keys.get(rid)
        if key is not None:
            self.service.cancel(key)

    def _handle_drain(self, drain: bool, timeout: float | None) -> None:
        summary = self.service.close(drain=drain, drain_timeout=timeout)
        # close() resolves every future, so every response callback has
        # already run; the drain summary is the last message out.
        self._send(
            {
                "kind": "drained",
                "shard": self.spec.shard_id,
                "summary": summary,
                # Final counters ride along: the parent stashes them so
                # post-shutdown stats/metrics artifacts still include
                # the work this (now exiting) process did.
                "stats": self.service.stats_payload(),
                "families": self.service.metrics.collect(),
            }
        )

    # -- main loop -----------------------------------------------------

    def run(self) -> str:
        """Serve the control channel; returns why the loop ended.

        ``"drained"`` — the supervisor decommissioned this shard with a
        drain message (the service is closed).  ``"disconnect"`` — the
        channel died; in ``"drain"`` mode the service was drained and
        closed, in ``"keep"`` mode it is still warm and serving-ready
        for the next adoption.
        """
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            daemon=True,
            name=f"shard-{self.spec.shard_id}-heartbeat",
        )
        heartbeat.start()
        self._send(
            {
                "kind": "ready",
                "shard": self.spec.shard_id,
                "pid": os.getpid(),
                # Echoed so the supervisor re-verifies the model identity
                # on every (re)connect — a standby host that adopted the
                # shard must serve the exact weights keys were minted for.
                "fingerprint": self.spec.fingerprint,
            }
        )
        try:
            while True:
                try:
                    message = self.conn.recv()
                except (EOFError, OSError, SystemExit):
                    if self.on_disconnect == "keep":
                        # A standing shard host: the supervisor may be
                        # mid-partition and will reconnect; keep the
                        # service (caches, store handle, warm engine) up.
                        logger.warning(
                            "shard %d: supervisor connection lost; "
                            "keeping service warm for re-adoption",
                            self.spec.shard_id,
                        )
                        return "disconnect"
                    # Parent died / closed the pipe, or SIGTERM landed:
                    # drain briefly so in-flight work is not cut
                    # mid-write, then exit — an orphan must not squat on
                    # the store partition.
                    logger.warning(
                        "shard %d: control pipe lost or terminated; draining",
                        self.spec.shard_id,
                    )
                    self.service.close(
                        drain=True, drain_timeout=_ORPHAN_DRAIN_TIMEOUT
                    )
                    return "disconnect"
                kind = message.get("kind")
                if kind == "request":
                    self._handle_request(message["id"], message["request"])
                elif kind == "cancel":
                    self._handle_cancel(message["id"])
                elif kind == "metrics":
                    self._send(
                        {
                            "kind": "info",
                            "rid": message["rid"],
                            "payload": self.service.metrics.collect(),
                        }
                    )
                elif kind == "stats":
                    self._send(
                        {
                            "kind": "info",
                            "rid": message["rid"],
                            "payload": self.service.stats_payload(),
                        }
                    )
                elif kind == "drain":
                    self._handle_drain(
                        message.get("drain", True), message.get("timeout")
                    )
                    return "drained"
                else:
                    logger.warning(
                        "shard %d: unknown control message %r",
                        self.spec.shard_id,
                        kind,
                    )
        finally:
            self._stop_heartbeat.set()
