"""Multi-process sharded serving: router, shard supervisor, failover.

:class:`ShardedService` fronts N shard processes (:mod:`.shard`) behind
the public surface the HTTP server and CLI already use — ``submit`` /
``explain`` / ``cancel`` / ``health`` / ``metrics_text`` /
``stats_payload`` / ``close`` — so the serving stack above it cannot
tell one process from eight.  Three cooperating pieces:

**Router.**  Every request is addressed by its content key
(:func:`~repro.service.request.request_key`) and assigned to a shard by
the consistent-hash ring (:class:`~repro.service.router.HashRing`) over
the *live* shard set.  Equal keys land on the same shard, which is what
lets the per-shard inner service keep coalescing duplicates and
hitting its own warm store partition.

**Supervisor.**  A monitor thread watches every shard for the two ways a
process stops serving: death (``Process.is_alive()`` false, or control
pipe EOF) and wedging (no heartbeat for ``heartbeat_timeout`` seconds —
the heartbeat rides the same pipe as responses, so a stalled pipe also
counts).  A wedged shard is SIGKILLed, then both cases restart with
capped exponential backoff (``base * 2**failures``, capped, counter
reset after ``backoff_reset_after`` seconds of health).  Tests and
drills provoke both from outside, by signalling the pid ``health()``
reports (``SIGKILL`` for death, ``SIGSTOP`` for a wedge).

**Failover.**  Requests in flight on a dead shard are re-dispatched to
the next live shard in the key's ring preference order, at most
``max_failovers`` times each — a request that kills every shard it
touches must not cascade through the fleet — after which the waiter gets
the retryable :class:`~repro.exceptions.ShardFailedError` (HTTP 503 +
``Retry-After``).  When *no* shard is live, new submissions fail the
same way instead of queueing into the void.

Observability rolls up: ``/metrics`` merges every shard's registry (as
``shard="N"``-labelled families, plus ``host=`` for remote shards) with
the router's own counters, and ``/healthz`` reports per-shard state —
one shard with a tripped breaker or mid-restart reads as ``degraded``,
not down; only drain or losing the health quorum is a 503.

**Transports and the fleet.**  Where a shard *runs* is a
:class:`~repro.service.transport.ShardTransport`: the default pipe
transport forks local child processes from a preloaded fork server
(bit-identical to the pre-fleet behaviour), while a :class:`~repro.service.transport.FleetConfig` puts
every shard behind a TCP transport dialling standing ``serve-shard``
hosts.  Cross-host supervision adds three behaviours on top of the
local rules, none of which touch the pipe path:

* *Receiver-clock liveness.*  Heartbeat staleness is judged by the
  supervisor's own arrival clock (:meth:`_ShardHandle.record_heartbeat`);
  the sender's wall time rides along for skew diagnostics only.
* *Launch retry.*  Connecting to a remote shard uses per-attempt
  timeouts inside a capped jittered-retry budget (``connect_timeout`` /
  ``connect_budget``), and every shard gets its *own* ready deadline —
  one slow-starting host cannot eat the fleet's startup budget.
* *Replace on host loss.*  A shard that keeps failing to *connect*
  (``host_loss_after`` consecutive launch cycles) is distinguished from
  one that merely crashed: its host is declared lost and the shard id is
  moved onto the next configured standby host, fingerprint re-verified
  on adoption, store partition rebuilt from warm misses.  In-flight
  requests follow the normal bounded failover; give-ups surface as the
  retryable ``host_lost`` (a :class:`~repro.exceptions.ShardFailedError`
  subclass) so operators can tell a machine loss from a process crash.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import logging
import pickle
import threading
import time
from concurrent.futures import Future

from repro.backends.client import RemoteBackend, RemoteBackendConfig
from repro.config import ServiceConfig, ShardConfig, StoreConfig
from repro.core.engine import EngineConfig
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import (
    ConfigurationError,
    HostLostError,
    ReproError,
    ServiceError,
    ShardFailedError,
    error_from_code,
)
from repro.obs.export import (
    families_to_json,
    families_to_prometheus,
    merge_families,
)
from repro.obs.metrics import GAUGE, MetricsRegistry, StatsInstruments, stat
from repro.service.request import ExplainRequest, request_key
from repro.service.router import HashRing
from repro.service.shard import ShardSpec
from repro.service.transport import (
    FleetConfig,
    PipeShardTransport,
    ShardTransport,
    TcpShardTransport,
)

__all__ = ["RouterStats", "ShardedService"]

logger = logging.getLogger("repro.service.supervisor")

#: Extra seconds past the drain budget before stragglers are killed.
_DRAIN_GRACE = 2.0
#: How long a metrics/stats round trip may take per shard.
_INFO_TIMEOUT = 5.0

_STARTING = "starting"
_LIVE = "live"
_DEAD = "dead"
_STOPPED = "stopped"


@dataclasses.dataclass
class RouterStats:
    """Counter snapshot of one :class:`ShardedService` router.

    Each field declares the instrument it reads, labeled
    ``component="router"``; the ``router`` block of ``stats_payload()``
    is built from it, so the stats op and ``/metrics`` agree.
    """

    requests: int = stat("repro_router_requests", "Requests routed to shards")
    failovers: int = stat(
        "repro_router_failovers",
        "In-flight requests re-dispatched after a shard death",
    )
    requests_failed: int = stat(
        "repro_router_requests_failed",
        "Requests failed with shard_failed after exhausting failovers",
    )
    live: int = stat("repro_shards_live", "Shards currently serving", GAUGE)
    deaths: int = stat(
        "repro_shard_deaths",
        "Shard processes that died or were declared hung",
    )
    restarts: int = stat(
        "repro_shard_restarts",
        "Shard processes restarted by the supervisor",
    )
    connect_failures: int = stat(
        "repro_shard_connect_failures", "Failed shard launch/connect cycles"
    )
    reconnects: int = stat(
        "repro_shard_reconnects",
        "Remote shards re-adopted after a lost connection",
    )
    hosts_lost: int = stat(
        "repro_hosts_lost",
        "Shard hosts declared lost and replaced by a standby",
    )

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """The line the ``serve`` and ``precompute`` CLIs print."""
        return "fleet: " + ", ".join(
            f"{name.replace('_', ' ')} {value}"
            for name, value in self.as_dict().items()
        )


class _Pending:
    """One in-flight request the router has committed to a shard."""

    __slots__ = ("future", "request", "key", "shard_id", "failovers")

    def __init__(self, future: Future, request: ExplainRequest, key: str,
                 shard_id: int) -> None:
        self.future = future
        self.request = request
        self.key = key
        self.shard_id = shard_id
        self.failovers = 0


class _ShardHandle:
    """Parent-side state of one shard (local process or remote host)."""

    def __init__(self, spec: ShardSpec, transport: ShardTransport) -> None:
        self.spec = spec
        self.transport = transport
        self.conn = None
        self.reader: threading.Thread | None = None
        self.state = _STOPPED
        #: True while a launcher thread is starting/connecting; the
        #: monitor must not read transport liveness in that window.
        self.launching = False
        self.pid: int | None = None
        self.last_heartbeat = 0.0
        #: Sender wall clock minus ours at the last heartbeat — a
        #: diagnostic only, never an input to liveness.
        self.clock_skew: float | None = None
        self.last_health: dict = {}
        self.started_at = 0.0
        self.restarts = 0
        self.consecutive_failures = 0
        #: Consecutive failed launch cycles since the last successful
        #: connect; ``host_loss_after`` of these flips crash → host loss.
        self.connect_failures = 0
        self.restart_at = 0.0
        self.last_error: str | None = None
        self.drain_summary: dict | None = None
        self.drained = threading.Event()
        # Final counters from the shard's drained message, served after
        # the process is gone (post-shutdown stats/metrics artifacts).
        self.final_stats: dict | None = None
        self.final_families: list | None = None

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    def record_heartbeat(
        self,
        now: float,
        sent_at: float | None = None,
        wall_now: float | None = None,
    ) -> None:
        """Record shard liveness from the *arrival* of a heartbeat.

        ``now`` is the supervisor's own monotonic clock at the moment
        the message arrived — the only clock liveness may trust:
        machines do not share wall clocks, and monotonic clocks are not
        comparable across processes even on one machine.  The sender's
        wall time (``sent_at``), when present, feeds nothing but the
        ``clock_skew`` diagnostic.
        """
        self.last_heartbeat = now
        if sent_at is not None:
            wall = time.time() if wall_now is None else wall_now
            self.clock_skew = wall - sent_at

    def heartbeat_age(self, now: float) -> float:
        reference = self.last_heartbeat or self.started_at
        return max(0.0, now - reference)


class _ShardBlobReader(pickle.Unpickler):
    """Reads a matcher blob as a shard will, refusing ``__main__`` classes.

    A shard never imports the launching script (see
    :class:`~repro.service.transport._ShardPopen`), and a standing
    ``serve-shard`` host's ``__main__`` is its own CLI, so a class from
    the parent's ``__main__`` could only fail in every shard, restart by
    restart, until ``ready_timeout``.
    """

    def find_class(self, module, name):
        if module == "__main__":
            raise ConfigurationError(
                f"the matcher uses __main__.{name}, defined in the launching "
                f"script, which a shard cannot import; move it into an "
                f"importable module"
            )
        return super().find_class(module, name)


class ShardedService:
    """N supervised shard processes behind the single-service surface.

    Construction pickles the matcher once, starts ``n_shards`` children
    (forked from the process-global fork server, which the first pipe
    shard boots) and blocks until every one reports ready (``ready_timeout`` bounds
    model load time).  With ``backend_address`` set instead of a
    matcher, no model travels at all: every shard dials the shared
    ``serve-matcher`` process, and the routing fingerprint is probed
    from its handshake up front — each shard re-verifies it at startup
    (:class:`~repro.exceptions.ArtifactMismatchError` on drift).

    With a ``fleet`` config the same construction runs cross-host: no
    process is started; each shard id dials its standing ``serve-shard``
    address from the fleet file and is adopted over TCP.  The fleet file
    overrides ``shard_config.n_shards``, and its ``standbys`` feed the
    supervisor's replace-on-host-loss policy.
    """

    def __init__(
        self,
        matcher=None,
        store_dir=None,
        config: ServiceConfig | None = None,
        engine_config: EngineConfig | None = None,
        store_config: StoreConfig | None = None,
        shard_config: ShardConfig | None = None,
        metrics: MetricsRegistry | None = None,
        backend_address: str | None = None,
        backend_config: RemoteBackendConfig | None = None,
        fleet: FleetConfig | None = None,
    ) -> None:
        constructed_at = time.monotonic()
        self.config = config or ServiceConfig()
        self.shard_config = shard_config or ShardConfig()
        self._fleet = fleet
        if fleet is not None:
            # The fleet file is the authority on shard count; the ring,
            # specs and handles below all follow it.
            self.shard_config = dataclasses.replace(
                self.shard_config, n_shards=fleet.n_shards
            )
        self._standbys = list(fleet.standbys) if fleet is not None else []
        #: Addresses declared lost (replaced, or unreachable past the
        #: host-loss threshold with no standby left).
        self._lost_hosts: set[str] = set()
        if (matcher is None) == (backend_address is None):
            raise ConfigurationError(
                "ShardedService needs exactly one of a matcher or a "
                "backend_address"
            )
        self.backend_address = backend_address
        if backend_address is not None:
            # One throwaway handshake: the router mints every request
            # key under this fingerprint, and each shard independently
            # verifies its own connection serves the same model.
            probe = RemoteBackend(backend_address, config=backend_config)
            try:
                self.fingerprint = probe.capabilities().fingerprint
            finally:
                probe.close()
        else:
            self.fingerprint = matcher_fingerprint(matcher)
        self.metrics = metrics or MetricsRegistry()
        # Shard stores live in the children; the router holds none.  The
        # attribute keeps the front-end surface (precompute's store
        # check) uniform across both service flavours.
        self.store = None
        self._ring = HashRing(
            range(self.shard_config.n_shards),
            virtual_nodes=self.shard_config.virtual_nodes,
        )
        self._lock = threading.RLock()
        #: Notified, under ``_lock``, whenever a shard goes live, stops,
        #: dies or records a ``last_error``: what ``_await_ready`` waits on.
        self._state_changed = threading.Condition(self._lock)
        self._closed = False
        self._stop = threading.Event()
        self._rid = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._info_waiters: dict[int, list] = {}

        self._instruments = StatsInstruments(self.metrics, RouterStats, "router")

        blob = None
        if matcher is not None:
            blob = pickle.dumps(matcher)
            _ShardBlobReader(io.BytesIO(blob)).load()
        fleet_by_id = (
            {} if fleet is None
            else {entry.shard_id: entry for entry in fleet.shards}
        )
        self._handles: dict[int, _ShardHandle] = {}
        for shard_id in range(self.shard_config.n_shards):
            spec = ShardSpec(
                shard_id=shard_id,
                matcher_blob=blob,
                service_config=self.config,
                engine_config=engine_config,
                store_dir=None if store_dir is None else str(store_dir),
                store_config=store_config,
                heartbeat_interval=self.shard_config.heartbeat_interval,
                backend_address=backend_address,
                backend_config=backend_config,
                fingerprint=self.fingerprint,
            )
            if fleet is None:
                transport: ShardTransport = PipeShardTransport()
            else:
                entry = fleet_by_id[shard_id]
                transport = TcpShardTransport(
                    entry.host,
                    entry.port,
                    connect_timeout=self.shard_config.connect_timeout,
                    connect_budget=self.shard_config.connect_budget,
                )
            self._handles[shard_id] = _ShardHandle(spec, transport)

        self._monitor: threading.Thread | None = None
        try:
            for handle in self._handles.values():
                self._start_shard(handle)
            # The monitor runs during startup on purpose: a remote shard
            # whose first connect cycle fails gets retried with backoff
            # inside its own ready budget instead of failing the fleet.
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True,
                name="shard-supervisor",
            )
            self._monitor.start()
            self._await_ready()
        except BaseException:
            self._stop.set()
            if self._monitor is not None:
                self._monitor.join(timeout=5.0)
            self._kill_all()
            raise
        logger.info(
            "fleet live: %d shard(s) in %.2fs",
            len(self._handles), time.monotonic() - constructed_at,
        )

    # -- shard lifecycle -----------------------------------------------

    def _start_shard(self, handle: _ShardHandle) -> None:
        """Begin one launch cycle; the launcher thread finishes it.

        Launching happens off the monitor thread because a remote
        connect can legitimately take a whole ``connect_budget`` —
        serializing that behind every other shard's health checks would
        turn one slow host into fleet-wide detection latency.
        """
        now = time.monotonic()
        with self._lock:
            handle.state = _STARTING
            handle.launching = True
            handle.conn = None
            handle.pid = None
            handle.started_at = now
            handle.last_heartbeat = 0.0
            handle.drain_summary = None
            handle.drained.clear()
        launcher = threading.Thread(
            target=self._launch_shard,
            args=(handle,),
            daemon=True,
            name=f"shard-{handle.shard_id}-launch",
        )
        launcher.start()

    def _launch_shard(self, handle: _ShardHandle) -> None:
        try:
            conn = handle.transport.launch(handle.spec, stop=self._stop)
        except Exception as error:  # noqa: BLE001 - launch failures retry
            self._on_launch_failure(handle, error)
            return
        with self._lock:
            handle.conn = conn
            handle.launching = False
            handle.connect_failures = 0
            handle.pid = handle.transport.pid
            # The ready clock starts at connection, not at dial time: a
            # remote shard should not inherit its host's connect retries
            # against its model-load budget.
            handle.started_at = time.monotonic()
            self._lost_hosts.discard(getattr(handle.transport, "address", ""))
        reader = threading.Thread(
            target=self._reader_loop,
            args=(handle, conn),
            daemon=True,
            name=f"shard-{handle.shard_id}-reader",
        )
        handle.reader = reader
        reader.start()

    def _on_launch_failure(self, handle: _ShardHandle, error: Exception) -> None:
        cfg = self.shard_config
        now = time.monotonic()
        with self._lock:
            handle.launching = False
            handle.state = _DEAD
            handle.last_error = str(error)
            self._state_changed.notify_all()
            handle.connect_failures += 1
            handle.consecutive_failures += 1
            backoff = min(
                cfg.restart_backoff_max,
                cfg.restart_backoff_base
                * (2 ** (handle.consecutive_failures - 1)),
            )
            handle.restart_at = now + backoff
            connect_failures = handle.connect_failures
            self._instruments.connect_failures.inc()
            self._instruments.live.set(len(self._live_ids()))
        logger.error(
            "shard %d failed to launch (%s, consecutive failure %d): %s; "
            "retry in %.2fs",
            handle.shard_id, handle.transport.describe(), connect_failures,
            error, backoff,
        )
        if (
            handle.transport.remote
            and connect_failures >= cfg.host_loss_after
            and not self._closed
        ):
            self._declare_host_lost(handle)

    def _declare_host_lost(self, handle: _ShardHandle) -> None:
        """Flip a repeatedly-unreachable shard from *crash* to *host loss*.

        With a standby available the shard id is replaced onto it
        immediately (the standby adopts the spec, re-verifies the
        fingerprint, and rebuilds its store partition from warm misses);
        without one, the host is only *marked* lost — health reports it,
        ``host_lost`` errors surface, and the supervisor keeps knocking
        on the dead address with backoff in case it returns.
        """
        with self._lock:
            lost = handle.transport.address
            if not self._standbys:
                if lost not in self._lost_hosts:
                    self._lost_hosts.add(lost)
                    self._instruments.hosts_lost.inc()
                    logger.error(
                        "host %s (shard %d) is lost and no standby is "
                        "configured; will keep retrying",
                        lost, handle.shard_id,
                    )
                return
            standby = self._standbys.pop(0)
            self._lost_hosts.add(lost)
            handle.transport.move_to(standby.host, standby.port)
            handle.connect_failures = 0
            handle.consecutive_failures = 0
            handle.restart_at = 0.0  # replace now, no backoff
            self._instruments.hosts_lost.inc()
        logger.error(
            "host %s is lost: replacing shard %d onto standby %s:%d",
            lost, handle.shard_id, standby.host, standby.port,
        )

    def _await_ready(self) -> None:
        cfg = self.shard_config
        for handle in self._handles.values():
            # Per-shard deadline: remote shards additionally get their
            # connect budget, so a slow accept on one host cannot starve
            # another shard's model-load time.
            budget = cfg.ready_timeout + (
                cfg.connect_budget if handle.transport.remote else 0.0
            )
            deadline = time.monotonic() + budget
            with self._state_changed:
                while handle.state != _LIVE:
                    remaining = deadline - time.monotonic()
                    if handle.state == _STOPPED or remaining <= 0:
                        last_error = handle.last_error
                        detail = f" ({last_error})" if last_error else ""
                        raise ServiceError(
                            f"shard {handle.shard_id} "
                            f"[{handle.transport.describe()}] failed to "
                            f"become ready within {budget:.0f}s{detail}"
                        )
                    self._state_changed.wait(remaining)

    def _kill_all(self) -> None:
        for handle in self._handles.values():
            handle.transport.kill()

    # -- reader thread (one per shard incarnation) ---------------------

    def _reader_loop(self, handle: _ShardHandle, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Death is handled (and the handle torn down) by the
                # monitor loop so detection is single-threaded.
                return
            kind = message.get("kind")
            if kind == "response":
                self._on_response(message)
            elif kind == "heartbeat":
                with self._lock:
                    handle.record_heartbeat(
                        time.monotonic(), message.get("sent_at")
                    )
                    handle.last_health = message.get("health", {})
            elif kind == "ready":
                served = message.get("fingerprint")
                if served is not None and served != self.fingerprint:
                    # A (standby) host serving different weights must
                    # never go live: request keys, caches and store
                    # partitions are minted under our fingerprint.
                    logger.error(
                        "shard %d [%s] reports fingerprint %s…, router "
                        "expects %s…; severing",
                        handle.shard_id, handle.transport.describe(),
                        served[:12], self.fingerprint[:12],
                    )
                    with self._lock:
                        handle.last_error = (
                            f"fingerprint mismatch: shard serves "
                            f"{served[:12]}…"
                        )
                        self._state_changed.notify_all()
                    handle.transport.kill()
                    continue  # next recv raises; monitor handles death
                reconnected = False
                with self._lock:
                    if handle.conn is conn:
                        reconnected = (
                            handle.transport.remote and handle.restarts > 0
                        )
                        handle.state = _LIVE
                        handle.pid = message.get("pid", handle.pid)
                        handle.record_heartbeat(time.monotonic())
                        self._instruments.live.set(len(self._live_ids()))
                        self._state_changed.notify_all()
                if reconnected:
                    self._instruments.reconnects.inc()
                logger.info(
                    "shard %d ready (%s, pid %s)",
                    handle.shard_id, handle.transport.describe(), handle.pid,
                )
            elif kind == "fatal":
                # A shard host refused the adoption (bad handshake,
                # fingerprint drift, build failure).  It closes the
                # connection next; record why for the launch error.
                with self._lock:
                    handle.last_error = message.get("error")
                    self._state_changed.notify_all()
                logger.error(
                    "shard %d host refused adoption [%s]: %s",
                    handle.shard_id, message.get("code"),
                    message.get("error"),
                )
            elif kind == "info":
                with self._lock:
                    waiter = self._info_waiters.pop(message["rid"], None)
                if waiter is not None:
                    waiter[1] = message.get("payload")
                    waiter[0].set()
            elif kind == "drained":
                with self._lock:
                    handle.drain_summary = message
                    handle.final_stats = message.get("stats")
                    handle.final_families = message.get("families")
                handle.drained.set()

    def _on_response(self, message: dict) -> None:
        with self._lock:
            entry = self._pending.pop(message["id"], None)
        if entry is None or entry.future.done():
            return
        if message.get("ok"):
            entry.future.set_result(message["result"])
        else:
            entry.future.set_exception(
                _shard_error(
                    message.get("code", "internal"),
                    message.get("error", "shard error"),
                    message.get("retry_after"),
                )
            )

    # -- monitor thread ------------------------------------------------

    def _monitor_loop(self) -> None:
        cfg = self.shard_config
        while not self._stop.wait(cfg.check_interval):
            now = time.monotonic()
            for handle in self._handles.values():
                with self._lock:
                    state = handle.state
                    launching = handle.launching
                if launching:
                    # A launcher thread owns this shard: it enforces its
                    # own connect budget and reports failure itself.
                    continue
                if state == _LIVE:
                    # Backoff amnesty after sustained health.
                    with self._lock:
                        if (
                            handle.consecutive_failures
                            and now - handle.started_at
                            >= cfg.backoff_reset_after
                        ):
                            handle.consecutive_failures = 0
                if state in (_STARTING, _LIVE):
                    dead = not handle.transport.alive()
                    hung = (
                        state == _LIVE
                        and handle.heartbeat_age(now) > cfg.heartbeat_timeout
                    ) or (
                        # A restart wedged during startup (import hang,
                        # store lock) must be detected too — it never
                        # reaches _LIVE, so heartbeat rules don't apply.
                        state == _STARTING
                        and now - handle.started_at > cfg.ready_timeout
                    )
                    if hung and not dead:
                        logger.error(
                            "shard %d hung: no heartbeat for %.1fs; "
                            "severing %s",
                            handle.shard_id, handle.heartbeat_age(now),
                            handle.transport.describe(),
                        )
                        handle.transport.kill()
                        handle.transport.join(timeout=5.0)
                        dead = True
                    if dead:
                        self._on_shard_death(handle, now)
                elif state == _DEAD and not self._closed:
                    if now >= handle.restart_at:
                        self._restart_shard(handle)

    def _on_shard_death(self, handle: _ShardHandle, now: float) -> None:
        cfg = self.shard_config
        with self._lock:
            handle.state = _DEAD
            self._state_changed.notify_all()
            handle.consecutive_failures += 1
            backoff = min(
                cfg.restart_backoff_max,
                cfg.restart_backoff_base
                * (2 ** (handle.consecutive_failures - 1)),
            )
            handle.restart_at = now + backoff
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
            orphaned = [
                (rid, entry)
                for rid, entry in self._pending.items()
                if entry.shard_id == handle.shard_id
            ]
            self._instruments.deaths.inc()
            self._instruments.live.set(len(self._live_ids()))
        exitcode = handle.transport.exitcode
        logger.error(
            "shard %d died (%s, pid %s, exit %s): %d in-flight "
            "request(s), restart in %.2fs",
            handle.shard_id, handle.transport.describe(), handle.pid,
            exitcode, len(orphaned), backoff,
        )
        for rid, entry in orphaned:
            self._failover(rid, entry)

    def _restart_shard(self, handle: _ShardHandle) -> None:
        with self._lock:
            handle.restarts += 1
        self._instruments.restarts.inc()
        logger.info(
            "restarting shard %d (restart #%d)",
            handle.shard_id, handle.restarts,
        )
        self._start_shard(handle)

    # -- routing -------------------------------------------------------

    def _live_ids(self) -> set[int]:
        return {
            shard_id
            for shard_id, handle in self._handles.items()
            if handle.state == _LIVE
        }

    def _dispatch(self, rid: int, entry: _Pending) -> bool:
        """Send *entry* to its shard; False when the channel is gone."""
        handle = self._handles[entry.shard_id]
        conn = handle.conn
        if conn is None:
            return False
        message = {"kind": "request", "id": rid, "request": entry.request}
        try:
            conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    def _unroutable_error(self, key: str, detail: str) -> ShardFailedError:
        """The give-up error for *key*: ``host_lost`` when its owner's
        host is currently declared lost, ``shard_failed`` otherwise."""
        owner = self._ring.owner(key)
        handle = self._handles.get(owner)
        if (
            handle is not None
            and handle.transport.remote
            and getattr(handle.transport, "address", None) in self._lost_hosts
        ):
            return HostLostError(
                f"host {handle.transport.address} owning request "
                f"{key[:16]} is lost; {detail}; safe to retry"
            )
        return ShardFailedError(
            f"shard serving request {key[:16]} died; {detail}; safe to retry"
        )

    def _failover(self, rid: int, entry: _Pending) -> None:
        """Re-route one orphaned in-flight request or fail it, retryably."""
        while True:
            with self._lock:
                if entry.future.done():
                    return
                live = self._live_ids()
                if (
                    entry.failovers >= self.shard_config.max_failovers
                    or not live
                ):
                    self._pending.pop(rid, None)
                    self._instruments.requests_failed.inc()
                    give_up = True
                    error = self._unroutable_error(
                        entry.key,
                        f"{entry.failovers} failover(s) attempted",
                    )
                else:
                    give_up = False
                    preference = self._ring.preference(entry.key)
                    next_id = next(
                        (sid for sid in preference if sid in live),
                        None,
                    )
                    entry.shard_id = next_id
                    entry.failovers += 1
            if give_up:
                entry.future.set_exception(error)
                return
            self._instruments.failovers.inc()
            logger.warning(
                "failing request %s over to shard %d (attempt %d)",
                entry.key[:16], entry.shard_id, entry.failovers,
            )
            if self._dispatch(rid, entry):
                return
            # The successor died between selection and send; loop and
            # let the failover budget decide.

    # -- public surface ------------------------------------------------

    def submit(
        self,
        request: ExplainRequest,
        block: bool = True,
        timeout: float | None = None,
    ) -> Future:
        """Route *request* to its shard; returns the result future.

        ``block``/``timeout`` are accepted for surface compatibility with
        :class:`~repro.service.service.ExplanationService`; backpressure
        is applied inside each shard (admission control runs there), so
        the router itself never blocks.
        """
        del block, timeout
        key = request_key(self.fingerprint, request)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed to new requests")
            live = self._live_ids()
            shard_id = self._ring.assign(key, live=live)
            if shard_id is None:
                raise self._unroutable_error(
                    key, "no live shard available (all restarting)"
                )
            rid = next(self._rid)
            entry = _Pending(future, request, key, shard_id)
            self._pending[rid] = entry
            self._instruments.requests.inc()
        if not self._dispatch(rid, entry):
            # Raced a shard death; the monitor hasn't torn it down yet.
            self._failover(rid, entry)
        return future

    def explain(self, request: ExplainRequest, timeout: float | None = None):
        """Synchronous :meth:`submit`: route, wait, return the payload."""
        return self.submit(request).result(timeout=timeout)

    def cancel(self, request: ExplainRequest) -> bool:
        """Detach the waiter(s) for *request* across the fleet.

        Returns ``True`` when at least one in-flight entry was dropped.
        The owning shard is also told, so its inner service can cancel
        the coalesced ticket if this was the last waiter.
        """
        key = request_key(self.fingerprint, request)
        dropped = []
        with self._lock:
            for rid, entry in list(self._pending.items()):
                if entry.key == key and not entry.future.done():
                    self._pending.pop(rid)
                    dropped.append((rid, entry))
        for rid, entry in dropped:
            entry.future.cancel()
            handle = self._handles.get(entry.shard_id)
            if handle is not None and handle.state == _LIVE:
                try:
                    handle.conn.send({"kind": "cancel", "id": rid})
                except (OSError, ValueError, BrokenPipeError):
                    pass
        return bool(dropped)

    def key_for(self, request: ExplainRequest) -> str:
        """The content-addressed key this service assigns to *request*."""
        return request_key(self.fingerprint, request)

    def shard_for(self, request: ExplainRequest) -> int:
        """The shard id *request* routes to with every shard live."""
        return self._ring.owner(self.key_for(request))

    @property
    def closed(self) -> bool:
        return self._closed

    # -- health / metrics / stats --------------------------------------

    def _effective_quorum(self) -> int:
        """Live shards required for the service to count as up.

        Pipe fleets keep the pre-fleet rule — any live shard serves
        (quorum 1) — because a local process crash is always transient.
        Remote fleets default to a majority: with half the hosts gone
        the supervisor may be the partitioned one, and serving a sliver
        of the ring as "healthy" would mask a real outage.
        """
        if self._fleet is None:
            return 1
        if self._fleet.quorum is not None:
            return self._fleet.quorum
        return self.shard_config.n_shards // 2 + 1

    def health(self) -> tuple[int, dict]:
        """Aggregated ``(http_status, payload)`` across the fleet.

        One sick shard — dead and backing off, mid-restart, breaker
        open, heartbeat stale — marks the service ``degraded`` but still
        200: the ring routes around it.  The same holds for one *lost
        host* in a remote fleet (its shard is mid-replacement onto a
        standby).  Only drain or falling below the health quorum is a
        503 (``quorum_lost`` when some shards still serve,
        ``no_live_shards`` when none do).
        """
        now = time.monotonic()
        fleet_mode = self._fleet is not None
        shards: dict[str, dict] = {}
        hosts: dict[str, dict] = {}
        degraded: list[str] = []
        with self._lock:
            closed = self._closed
            pending = len(self._pending)
            lost_hosts = sorted(self._lost_hosts)
            standbys_left = len(self._standbys)
            for shard_id, handle in sorted(self._handles.items()):
                inner = handle.last_health
                breaker = inner.get("breaker", "unknown")
                entry = {
                    "state": handle.state,
                    "pid": handle.pid,
                    "restarts": handle.restarts,
                    "heartbeat_age": round(handle.heartbeat_age(now), 3),
                    "queue_depth": inner.get("queue_depth", 0),
                    "breaker": breaker,
                }
                if "degraded" in inner:
                    entry["degraded"] = inner["degraded"]
                if fleet_mode:
                    # Host identity is the fleet entry's host:port — on
                    # one machine (localhost drills) the port is what
                    # distinguishes hosts.
                    entry["host"] = handle.transport.address
                    if handle.clock_skew is not None:
                        entry["clock_skew"] = round(handle.clock_skew, 3)
                shards[str(shard_id)] = entry
                sick = (
                    handle.state != _LIVE
                    or handle.heartbeat_age(now)
                    > self.shard_config.heartbeat_timeout
                    or breaker == "open"
                    or not inner.get("ok", True)
                )
                if sick:
                    degraded.append(str(shard_id))
                if fleet_mode:
                    bucket = hosts.setdefault(
                        handle.transport.address, {"shards": [], "live": 0}
                    )
                    bucket["shards"].append(shard_id)
                    if handle.state == _LIVE:
                        bucket["live"] += 1
            live = len(self._live_ids())
        quorum = self._effective_quorum()
        ok = not closed and live >= quorum
        payload = {
            "ok": ok,
            "draining": closed,
            "shards": shards,
            "live_shards": live,
            "pending": pending,
        }
        if fleet_mode:
            for bucket in hosts.values():
                bucket["state"] = "up" if bucket["live"] else "down"
            payload["hosts"] = hosts
            payload["lost_hosts"] = lost_hosts
            payload["standbys_available"] = standbys_left
            payload["quorum"] = quorum
        if degraded:
            payload["degraded"] = degraded
        if not ok:
            if closed:
                payload["reason"] = "draining"
            elif live == 0:
                payload["reason"] = "no_live_shards"
            else:
                payload["reason"] = "quorum_lost"
        return (200 if ok else 503), payload

    def _collect_shard(self, handle: _ShardHandle, kind: str):
        """One metrics/stats round trip; ``None`` on a sick shard."""
        with self._lock:
            if handle.state != _LIVE:
                return None
            rid = next(self._rid)
            waiter = [threading.Event(), None]
            self._info_waiters[rid] = waiter
            conn = handle.conn
        try:
            conn.send({"kind": kind, "rid": rid})
        except (OSError, ValueError, BrokenPipeError):
            with self._lock:
                self._info_waiters.pop(rid, None)
            return None
        if not waiter[0].wait(_INFO_TIMEOUT):
            with self._lock:
                self._info_waiters.pop(rid, None)
            return None
        return waiter[1]

    def _merged_families(self) -> list[dict]:
        tagged = [({"shard": "router"}, self.metrics.collect())]
        for shard_id, handle in sorted(self._handles.items()):
            families = self._collect_shard(handle, "metrics")
            if families is None:
                families = handle.final_families
            if families is not None:
                labels = {"shard": str(shard_id)}
                if handle.transport.remote:
                    # Only remote shards carry a host label; the pipe
                    # path's exposition stays byte-compatible.
                    labels["host"] = handle.transport.address
                tagged.append((labels, families))
        return merge_families(tagged)

    def metrics_text(self) -> str:
        """Fleet-wide Prometheus exposition (``shard`` label per series)."""
        return families_to_prometheus(self._merged_families())

    def metrics_json(self) -> dict:
        """Fleet-wide ``metrics.json`` document."""
        return families_to_json(self._merged_families())

    @property
    def stats(self) -> RouterStats:
        """The router's counters, read atomically from its registry."""
        return self._instruments.snapshot()

    def stats_payload(self) -> dict:
        """Router counters plus every live shard's stats payload.

        The ``router`` block is :attr:`stats` plus the facts that are
        not instruments, so it reads what ``/metrics`` exports.
        """
        router = self.stats.as_dict()
        with self._lock:
            router["n_shards"] = self.shard_config.n_shards
            router["pending"] = len(self._pending)
            if self._fleet is not None:
                router["transport"] = "tcp"
                router["lost_hosts"] = sorted(self._lost_hosts)
                router["standbys_available"] = len(self._standbys)
        shards = {}
        for shard_id, handle in sorted(self._handles.items()):
            stats = self._collect_shard(handle, "stats")
            if stats is None:
                stats = handle.final_stats
            if stats is not None:
                shards[str(shard_id)] = stats
        return {"router": router, "shards": shards}

    # -- shutdown ------------------------------------------------------

    def close(
        self,
        wait: bool = True,
        drain: bool = True,
        drain_timeout: float | None = None,
    ) -> dict:
        """Drain the fleet and stop the supervisor; returns a summary.

        Every live shard gets a drain message and the full budget to
        finish queued work (all waiters resolve — the per-shard inner
        drain guarantees terminal responses).  Stragglers past the budget
        plus a small grace are killed, and any request still pending
        after that fails with the retryable
        :class:`~repro.exceptions.ShardFailedError`.
        """
        del wait
        budget = (
            self.config.drain_timeout if drain_timeout is None
            else drain_timeout
        )
        with self._lock:
            if self._closed:
                return {"already_closed": True}
            self._closed = True
        self._stop.set()
        self._monitor.join(timeout=5.0)

        live = []
        with self._lock:
            for handle in self._handles.values():
                if handle.state == _LIVE and handle.conn is not None:
                    live.append(handle)
        for handle in live:
            try:
                handle.conn.send(
                    {"kind": "drain", "drain": drain, "timeout": budget}
                )
            except (OSError, ValueError, BrokenPipeError):
                pass

        deadline = time.monotonic() + (budget if drain else 0.0) + _DRAIN_GRACE
        summaries: dict[str, dict] = {}
        for handle in live:
            remaining = max(0.0, deadline - time.monotonic())
            if handle.drained.wait(remaining):
                message = handle.drain_summary or {}
                summaries[str(handle.shard_id)] = message.get("summary", {})
        for handle in self._handles.values():
            transport = handle.transport
            transport.join(timeout=max(0.0, deadline - time.monotonic()))
            if transport.alive() and not handle.drained.is_set():
                logger.warning(
                    "shard %d did not drain in time; severing %s",
                    handle.shard_id, transport.describe(),
                )
            # For a local process this is kill+reap of a straggler (a
            # no-op after a clean exit); for a remote shard it just
            # drops the connection — the drained host exits on its own.
            transport.kill()
            transport.join(timeout=5.0)
            with self._lock:
                handle.state = _STOPPED
                self._state_changed.notify_all()
        self._instruments.live.set(0)

        with self._lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
        for _rid, entry in leftovers:
            if not entry.future.done():
                entry.future.set_exception(
                    ShardFailedError(
                        "service shut down before this request completed; "
                        "safe to retry"
                    )
                )
        return {
            "drained": drain,
            "shards": summaries,
            "abandoned": len(leftovers),
        }

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shard_error(code: str, message: str, retry_after) -> ReproError:
    """The taxonomy error a shard reported, rebuilt from its wire form.

    The HTTP layer maps errors to statuses by their ``code`` attribute,
    so the rebuilt exception only needs the right code — not the exact
    original class — to serve the same response the shard would have.
    """
    error = error_from_code(code, message, retry_after)
    if error is None:
        error = ServiceError(message)
        error.code = code
    return error
