"""Pluggable shard transports: pipes in-process, framed sockets across hosts.

:class:`~repro.service.supervisor.ShardedService` talks to every shard
through one duplex message channel and a tiny lifecycle surface (launch /
alive / kill / join).  This module factors that surface into
:class:`ShardTransport` so the supervisor cannot tell *where* a shard
runs:

* :class:`PipeShardTransport` starts the shard as a local child process
  over a :func:`multiprocessing.Pipe` — the pre-fleet message flow,
  which is what keeps ``--shards N`` bit-identical.  The child is forked
  from a fork server that has already imported the serving stack, this
  module, every matcher module and what a first LIME or SHAP
  explanation loads (:data:`_PRELOAD`), and it never re-runs the
  parent's main module (:class:`_ShardPopen`), so from the fork to its
  first explanation it imports no module (the embedding matcher's first
  prediction still imports scipy).
* :class:`TcpShardTransport` dials a standing ``serve-shard`` process on
  another machine and adopts it: the :class:`~repro.service.shard.ShardSpec`
  travels in the first frame, and from then on the exact same control
  messages (request / cancel / drain / heartbeat / response / …) flow as
  length-prefixed frames instead of pipe writes.

The wire format reuses :mod:`repro.backends.protocol` — the same 8-byte
header (magic + uint32 length), the same 256 MiB cap, the same pickled
dict payloads and the same request-id-correlated out-of-order completion
— under its own magic ``RSF1`` so a shard dialled as a matcher backend
(or vice versa) is rejected at the first frame.

:class:`FrameConnection` wraps a connected socket in the
``multiprocessing.Connection`` duck type (``send`` / ``recv`` / ``close``,
``EOFError`` on a cleanly closed peer) so the shard worker loop and the
supervisor reader loop run unchanged over either transport.  A corrupt
frame is deliberately surfaced as :class:`ConnectionError` — on a
long-lived cross-host link mid-stream garbage means the connection is
unusable (framing is lost), and "connection died" is the failure both
loops already know how to survive.

The static fleet layout (shard id → host:port, standby hosts, quorum)
is :class:`FleetConfig`, loaded from the ``--fleet fleet.json`` file.
"""

from __future__ import annotations

import io
import json
import logging
import multiprocessing
import os
import random
import socket
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing import (
    context,
    forkserver,
    popen_forkserver,
    reduction,
    spawn,
    util,
)
from multiprocessing.context import set_spawning_popen

from repro.backends.protocol import read_frame, send_frame
from repro.exceptions import BackendProtocolError, ConfigurationError

__all__ = [
    "SHARD_MAGIC",
    "SHARD_PROTOCOL_VERSION",
    "FrameConnection",
    "connect_with_retry",
    "FleetShard",
    "FleetConfig",
    "load_fleet_config",
    "parse_fleet_config",
    "ShardTransport",
    "PipeShardTransport",
    "TcpShardTransport",
]

logger = logging.getLogger("repro.service.transport")

#: First bytes of every shard-fleet frame (the matcher backend uses
#: ``RBM1``; distinct magics catch cross-wired addresses immediately).
SHARD_MAGIC = b"RSF1"

#: Bumped whenever the adopt handshake or control messages change shape.
SHARD_PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------------
# Framed connection (multiprocessing.Connection duck type over a socket)
# ---------------------------------------------------------------------------


class FrameConnection:
    """A pipe-shaped duplex message channel over one connected socket.

    Mirrors the :func:`multiprocessing.Pipe` connection surface the shard
    worker and supervisor reader loops are written against:

    * ``send(message)`` frames and writes one dict; raises
      :class:`OSError` once the connection is dead (exactly what a
      broken pipe raises, so senders need no transport-specific
      handling);
    * ``recv()`` blocks for one dict; raises :class:`EOFError` when the
      peer hung up cleanly and :class:`ConnectionError` (an
      :class:`OSError`) when the link died mid-frame **or the peer sent
      garbage** — a framing violation on a stream connection loses
      message boundaries for good, so it is treated as connection loss,
      not as a recoverable protocol hiccup;
    * ``close()`` is idempotent and unblocks a concurrent ``recv``.

    Sends are serialized by an internal lock (response callbacks and the
    heartbeat thread share the channel); receives are single-reader by
    construction in both loops.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._dead = False

    @property
    def closed(self) -> bool:
        """Whether the channel is known dead (closed, EOF, or corrupt)."""
        return self._dead

    def send(self, message: dict) -> None:
        if self._dead:
            raise OSError("shard connection is closed")
        try:
            with self._send_lock:
                send_frame(self._sock, message, magic=SHARD_MAGIC)
        except OSError:
            self._dead = True
            raise

    def recv(self) -> dict:
        if self._dead:
            raise EOFError("shard connection is closed")
        try:
            return read_frame(self._sock, magic=SHARD_MAGIC)
        except BackendProtocolError as error:
            # Garbage on a stream connection: the frame boundary is lost,
            # every later byte is unparseable.  Kill the link and let the
            # reconnect machinery (which already survives connection
            # loss) handle it.
            self._dead = True
            self._shutdown()
            raise ConnectionError(f"corrupt shard frame: {error}") from error
        except ConnectionError as error:
            self._dead = True
            if "closed mid-frame (0/" in str(error):
                # A clean close *between* frames is how a pipe peer
                # signals EOF; mirror that so both loops' EOF handling
                # stays transport-agnostic.
                raise EOFError("shard peer closed the connection") from None
            raise
        except OSError:
            self._dead = True
            raise

    def _shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self._dead = True
        self._shutdown()
        try:
            self._sock.close()
        except OSError:
            pass


def connect_with_retry(
    host: str,
    port: int,
    *,
    attempt_timeout: float = 5.0,
    budget: float = 30.0,
    backoff_base: float = 0.1,
    backoff_max: float = 2.0,
    seed: int = 0,
    stop: threading.Event | None = None,
) -> socket.socket:
    """Dial ``host:port`` with per-attempt timeouts inside a total budget.

    Each attempt is bounded by ``attempt_timeout`` (never by the whole
    budget — a blackholed SYN must not eat every retry), and failed
    attempts back off exponentially with seeded jitter (±50%) up to
    ``backoff_max`` so a rebooting host is not hammered in lockstep by
    every supervisor.  Raises :class:`ConnectionError` once ``budget``
    seconds pass without a connection, or immediately when *stop* is set
    (supervisor shutdown must not wait out a dead host's budget).
    """
    rng = random.Random((seed + 1) * 9_176_471)
    deadline = time.monotonic() + budget
    attempts = 0
    last_error: OSError | None = None
    while True:
        if stop is not None and stop.is_set():
            raise ConnectionError(
                f"connect to shard at {host}:{port} aborted: shutting down"
            )
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        attempts += 1
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(attempt_timeout, remaining)
            )
        except OSError as error:
            last_error = error
        else:
            sock.settimeout(None)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP sockets in tests
                pass
            return sock
        backoff = min(backoff_max, backoff_base * (2 ** (attempts - 1)))
        delay = min(backoff * (0.5 + rng.random()),
                    max(0.0, deadline - time.monotonic()))
        if delay > 0:
            if stop is not None:
                if stop.wait(delay):
                    continue  # loop re-checks stop and raises
            else:
                time.sleep(delay)
    raise ConnectionError(
        f"could not connect to shard at {host}:{port} within {budget:.1f}s "
        f"({attempts} attempt(s)): {last_error}"
    )


# ---------------------------------------------------------------------------
# Static fleet layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetShard:
    """One shard's address in a static fleet layout."""

    shard_id: int
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class FleetConfig:
    """A static cross-host fleet: shard addresses, standbys, quorum.

    ``shards`` maps the contiguous shard ids ``0..n-1`` onto standing
    ``serve-shard`` processes.  ``standbys`` are spare ``serve-shard``
    addresses the supervisor may replace a *lost host's* shard onto —
    consumed in order, never returned.  ``quorum`` overrides the health
    quorum (default: a majority of the fleet).
    """

    shards: tuple[FleetShard, ...]
    standbys: tuple[FleetShard, ...] = ()
    quorum: int | None = None

    def __post_init__(self) -> None:
        if not self.shards:
            raise ConfigurationError("fleet config lists no shards")
        ids = sorted(shard.shard_id for shard in self.shards)
        if ids != list(range(len(self.shards))):
            raise ConfigurationError(
                f"fleet shard ids must be contiguous from 0, got {ids}"
            )
        if self.quorum is not None and not (
            1 <= self.quorum <= len(self.shards)
        ):
            raise ConfigurationError(
                f"fleet quorum must be in [1, {len(self.shards)}], "
                f"got {self.quorum}"
            )

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def parse_fleet_config(data: dict) -> FleetConfig:
    """Build a :class:`FleetConfig` from the ``fleet.json`` document shape.

    ::

        {"shards": [{"id": 0, "host": "10.0.0.1", "port": 9301}, ...],
         "standbys": [{"host": "10.0.0.9", "port": 9301}],
         "quorum": 2}
    """
    if not isinstance(data, dict):
        raise ConfigurationError("fleet config must be a JSON object")

    def _entry(raw: dict, index: int, *, standby: bool) -> FleetShard:
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"fleet entry #{index} must be an object, got {type(raw).__name__}"
            )
        try:
            host = str(raw["host"])
            port = int(raw["port"])
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"fleet entry #{index} needs string 'host' and integer "
                f"'port': {error}"
            ) from error
        shard_id = -1 if standby else int(raw.get("id", index))
        if not 0 < port < 65536:
            raise ConfigurationError(
                f"fleet entry #{index} port {port} out of range"
            )
        return FleetShard(shard_id=shard_id, host=host, port=port)

    shards = tuple(
        _entry(raw, index, standby=False)
        for index, raw in enumerate(data.get("shards", []))
    )
    standbys = tuple(
        _entry(raw, index, standby=True)
        for index, raw in enumerate(data.get("standbys", []))
    )
    quorum = data.get("quorum")
    if quorum is not None:
        quorum = int(quorum)
    return FleetConfig(shards=shards, standbys=standbys, quorum=quorum)


def load_fleet_config(path) -> FleetConfig:
    """Parse ``fleet.json`` at *path* into a :class:`FleetConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read fleet config: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"fleet config {path} is not valid JSON: {error}"
        ) from error
    return parse_fleet_config(data)


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class ShardTransport:
    """Where one shard runs and how to reach it.

    ``launch(spec)`` produces the duplex message channel (pipe connection
    or :class:`FrameConnection`) the supervisor's reader thread consumes;
    ``alive`` / ``kill`` / ``join`` / ``exitcode`` are the lifecycle
    surface the monitor loop drives.  One transport instance follows one
    shard *id* across restarts (and, for TCP, across host replacements).
    """

    kind = "abstract"
    #: Whether the shard runs on another machine (drives host-loss
    #: replacement, connect budgets, and ``host=`` metric labels).
    remote = False
    #: Stable host label for health payloads and metrics.
    host = "local"

    def launch(self, spec, stop: threading.Event | None = None):
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def join(self, timeout: float | None = None) -> None:
        raise NotImplementedError

    @property
    def exitcode(self) -> int | None:
        return None

    @property
    def pid(self) -> int | None:
        return None

    def describe(self) -> str:
        return self.kind


#: What the fork server imports once, so that a forked shard imports no
#: module from the fork to its first LIME and SHAP explanation (the
#: embedding matcher's first prediction still imports scipy).  These
#: are fork-server-only on purpose: as top-level imports here they would
#: also load in the ``serve`` child, which starts no shard.
#: :func:`_ensure_fork_server` boots the server with the parent's
#: ``sys.path``, so it preloads exactly what the supervisor can import.
#: The server is process-global and exits with its parent.
_PRELOAD = [
    "numpy",
    # The shard's serving stack; brings repro.backends.client for
    # backend-mode shards.
    "repro.service.shard",
    # Unpickling the launch payload: the _ShardProcess object lives here.
    "repro.service.transport",
    # Unpickling the matcher blob: every matcher module the CLI serves.
    "repro.matchers.logistic",
    "repro.matchers.boosting",
    "repro.matchers.neural",
    "repro.matchers.embedding",
    "repro.matchers.rules",
    # LandmarkExplainer._rng_for seeds each explanation's streams with
    # np.random.SeedSequence; numpy loads numpy.random lazily.
    "numpy.random",
    # batch_similarity._bucketed calls np.unique, which in numpy 2.x
    # checks np.ma.is_masked; numpy loads numpy.ma lazily.
    "numpy.ma",
    # batch_similarity._encode encodes strings as "utf-32-le"; the codec
    # module loads on its first lookup.
    "encodings.utf_32_le",
    # build_landmark_explainer imports it for explainer="shap".
    "repro.explainers.kernel_shap",
]
#: Held around every fork-server boot: the launch threads of one fleet
#: start their shards concurrently, and the boot edits the process-wide
#: environment.
_BOOT_LOCK = threading.Lock()
_preload_set = False


def _ensure_fork_server() -> None:
    """Boot the fork server with the parent's ``sys.path`` unless it runs.

    CPython's ``forkserver.main`` receives the parent's ``sys.path`` and
    drops it, so a plainly booted server cannot import what the parent
    found through a ``sys.path`` entry added at run time (or, under
    ``-S``, through ``site``).  The server does inherit the environment,
    so for this one call the parent's path, in its order and without
    empty entries, is its ``PYTHONPATH``; the old value comes back
    afterwards.  ``ensure_running`` is a no-op while the server lives
    and reboots a dead one, which then gets the same path.
    """
    global _preload_set
    with _BOOT_LOCK:
        if not _preload_set:
            forkserver.set_forkserver_preload(_PRELOAD)
            _preload_set = True
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            entry for entry in sys.path if entry
        )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved


class _ShardPopen(popen_forkserver.Popen):
    """CPython's fork-server launch, minus the parent's main module.

    ``spawn.get_preparation_data`` tells every child to import the
    parent's ``__main__`` (``init_main_from_path`` for a script,
    ``init_main_from_name`` for ``python -m``), as ``spawn`` needs for
    targets defined there.  A shard's target and spec live in
    :mod:`repro`, so re-running the script, a drill, the ``repro-em``
    console-script wrapper (and with it :mod:`repro.cli`) or a
    ``python -m`` module only costs start time.  Preloading ``__main__``
    in the server cannot help: ``ensure_running`` forwards only a
    ``main_path`` key, which ``get_preparation_data`` never emits.
    ``_launch`` is CPython's body with the two keys dropped;
    ``TestForkServer`` checks that the rest still matches the running
    interpreter's.
    """

    def _launch(self, process_obj):
        prep_data = spawn.get_preparation_data(process_obj._name)
        prep_data.pop("init_main_from_path", None)
        prep_data.pop("init_main_from_name", None)
        buf = io.BytesIO()
        set_spawning_popen(self)
        try:
            reduction.dump(prep_data, buf)
            reduction.dump(process_obj, buf)
        finally:
            set_spawning_popen(None)

        self.sentinel, w = forkserver.connect_to_new_process(self._fds)
        # Keep a duplicate of the data pipe's write end as a sentinel of the
        # parent process used by the child process.
        _parent_w = os.dup(w)
        self.finalizer = util.Finalize(self, util.close_fds,
                                       (_parent_w, self.sentinel))
        with open(w, 'wb', closefd=True) as f:
            f.write(buf.getbuffer())
        self.pid = forkserver.read_signed(self.sentinel)


class _ShardProcess(context.ForkServerProcess):
    """How a pipe shard starts: forked by the fork server, main-less.

    The supervisor restarts shards from a thread, and forking a threaded
    process can carry held locks (logging, BLAS) into the child — a
    deadlock class this subsystem exists to remove.  The ``forkserver``
    start method keeps that guarantee: the first pipe shard in a process
    starts one server with fork+exec, a fresh interpreter as under
    ``spawn``, and every later start and restart is a fork inside that
    single-purpose server, never of the supervisor.  The server's only
    extra threads are numpy's OpenBLAS pool, which OpenBLAS stops in its
    own ``pthread_atfork`` handler.  The BLAS thread count is left alone
    on purpose: a different count can change the order of reductions,
    and so the weights.  Only shards use this class; any other
    ``forkserver`` process still imports the parent's main module.
    """

    @staticmethod
    def _Popen(process_obj):
        return _ShardPopen(process_obj)


class PipeShardTransport(ShardTransport):
    """The in-process transport: fork a local child, talk over a duplex pipe.

    The pre-fleet shard lifecycle — same pipe, same kill/join semantics —
    so the ``--shards N`` path stays bit-identical.  The child is forked
    from the process-global fork server (see :class:`_ShardProcess`),
    which the first pipe shard in a process boots.
    """

    kind = "pipe"
    remote = False
    host = "local"

    def __init__(self) -> None:
        self._process = None

    def launch(self, spec, stop: threading.Event | None = None):
        from repro.service.shard import shard_main

        del stop  # a local fork is effectively instant
        _ensure_fork_server()
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = _ShardProcess(
            target=shard_main,
            args=(spec, child_conn),
            name=f"repro-shard-{spec.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        return parent_conn

    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def kill(self) -> None:
        if self._process is not None and self._process.is_alive():
            self._process.kill()

    def join(self, timeout: float | None = None) -> None:
        if self._process is not None:
            self._process.join(timeout)

    @property
    def exitcode(self) -> int | None:
        return None if self._process is None else self._process.exitcode

    @property
    def pid(self) -> int | None:
        return None if self._process is None else self._process.pid

    def describe(self) -> str:
        return f"pipe pid={self.pid}"


class TcpShardTransport(ShardTransport):
    """The cross-host transport: adopt a standing ``serve-shard`` process.

    ``launch`` dials the shard host (per-attempt timeout, capped jittered
    retry inside ``connect_budget``), sends the adopt handshake — the
    pickled :class:`~repro.service.shard.ShardSpec` in the first frame —
    and blocks up to ``connect_timeout`` for the host's ``adopted``
    acknowledgement, so a partition that swallows the handshake is a
    fast launch failure, not a wedged startup.
    The remote process is *not* this supervisor's child: ``kill`` only
    severs the connection (the remote server keeps its service warm for
    a reconnect), ``join`` is a no-op and ``exitcode`` is unknowable.

    ``move_to`` retargets the shard id at a standby host — the
    supervisor's *replace* restart policy for host loss.
    """

    kind = "tcp"
    remote = True

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        connect_budget: float = 30.0,
        backoff_base: float = 0.1,
        backoff_max: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self._connect_timeout = connect_timeout
        self._connect_budget = connect_budget
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._seed = seed
        self._conn: FrameConnection | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def launch(self, spec, stop: threading.Event | None = None):
        sock = connect_with_retry(
            self.host,
            self.port,
            attempt_timeout=self._connect_timeout,
            budget=self._connect_budget,
            backoff_base=self._backoff_base,
            backoff_max=self._backoff_max,
            seed=self._seed + spec.shard_id,
            stop=stop,
        )
        conn = FrameConnection(sock)
        try:
            conn.send(
                {
                    "kind": "adopt",
                    "protocol": SHARD_PROTOCOL_VERSION,
                    "spec": spec,
                }
            )
        except OSError:
            conn.close()
            raise ConnectionError(
                f"shard host {self.address} dropped the connection during "
                f"the adopt handshake"
            ) from None
        # Block (briefly) for the host's acknowledgement.  The ack is
        # sent before the service build, so it bounds only the network
        # round-trip: a partition that accepted the TCP connect but
        # swallowed the handshake frame fails here within
        # ``connect_timeout`` instead of wedging the shard in "starting"
        # until the supervisor's ready timeout severs it.
        try:
            sock.settimeout(self._connect_timeout)
            ack = conn.recv()
            sock.settimeout(None)
        except ConnectionError:
            conn.close()
            raise
        except (EOFError, OSError) as error:
            conn.close()
            raise ConnectionError(
                f"shard host {self.address} did not acknowledge the adopt "
                f"handshake within {self._connect_timeout:.1f}s"
            ) from error
        if ack.get("kind") == "fatal":
            conn.close()
            raise ConnectionError(
                f"shard host {self.address} refused adoption "
                f"[{ack.get('code', 'internal')}]: {ack.get('error')}"
            )
        if ack.get("kind") != "adopted":
            conn.close()
            raise ConnectionError(
                f"shard host {self.address} answered the adopt handshake "
                f"with {ack.get('kind')!r}, not an acknowledgement"
            )
        self._conn = conn
        return conn

    def alive(self) -> bool:
        return self._conn is not None and not self._conn.closed

    def kill(self) -> None:
        if self._conn is not None:
            self._conn.close()

    def join(self, timeout: float | None = None) -> None:
        # The remote process belongs to its own host's init system; there
        # is nothing local to reap.
        del timeout

    def move_to(self, host: str, port: int) -> None:
        """Retarget this shard id at a standby host (host-loss replace)."""
        self.kill()
        self._conn = None
        self.host = host
        self.port = port

    def describe(self) -> str:
        return f"tcp {self.address}"
