"""Seeded chaos primitives for lifecycle and crash-safety testing.

Complements :mod:`repro.testing.faults` (which injects *matcher* faults)
with the infrastructure half of the failure model: damaged store files,
processes killed mid-request, hostile/slow network clients and overload
bursts.  Everything is driven by explicit seeds — a chaos run is exactly
reproducible, so a drill failure is a bug report, not a flake.

File damage (the store's crash model):

* :func:`truncate_file` — a crash mid-write that cut the file short;
* :func:`flip_bytes` — bit rot / a torn sector inside the file;
* :func:`overwrite_with_garbage` — the path exists but was never a
  SQLite database (operator error, wrong volume mount).

Process/network chaos:

* :func:`kill_after` — SIGKILL a subprocess after a delay, on a timer
  thread (simulates an OOM kill mid-computation);
* :class:`SlowClient` — opens a TCP connection, dribbles a partial HTTP
  request and stalls, to verify per-connection read timeouts;
* :func:`overload_burst` — N callables released simultaneously through a
  barrier, results and exceptions collected per slot (admission-control
  drills).

Network chaos: a :class:`ChaosProxy` sits on one framed TCP link — a
supervisor and its ``serve-shard`` host, or a
:class:`~repro.backends.client.RemoteBackend` and its matcher server —
and mangles the stream in-flight.  The serving modules carry no fault
hooks of their own; every shard, backend and fleet fault is injected
from outside the process, by a signal or by this proxy:

* ``partition`` — both directions are silently dropped while the sockets
  stay established (the classic network partition: neither side sees an
  error, only silence);
* ``slow`` — every chunk is delayed (a saturated or lossy link);
* ``half_open`` — dialling-side bytes flow, replies vanish (asymmetric
  routing failure: the server serves into the void);
* ``corrupt_frame`` — one bad-magic frame is injected toward the
  dialling side (middlebox mix-up) and the connection is severed;
* ``cut_frame`` — one reply is cut after a partial frame header and the
  connection torn down (a crashed or OOM-killed server process);
* :meth:`ChaosProxy.heal` — back to transparent forwarding; the link
  must reconnect and resume.

Used by the store-recovery, server-hardening, backend failure-taxonomy
and fleet tests, ``benchmarks/bench_shedding.py``, and
``scripts/chaos_drill.py`` and ``scripts/fleet_drill.py`` (CI chaos
jobs).
"""

from __future__ import annotations

import random
import signal
import socket
import threading
import time
from pathlib import Path

__all__ = [
    "ChaosProxy",
    "SlowClient",
    "chaos_rng",
    "flip_bytes",
    "kill_after",
    "overload_burst",
    "overwrite_with_garbage",
    "truncate_file",
]


def chaos_rng(seed: int) -> random.Random:
    """A dedicated stream for chaos decisions.

    Mixes the seed the same way :class:`repro.testing.faults.FaultSchedule`
    does (distinct multiplier), so chaos draws never collide with fault
    schedules or science RNGs built from the same experiment seed.
    """
    return random.Random((seed + 1) * 7_368_787)


# ---------------------------------------------------------------------------
# File damage
# ---------------------------------------------------------------------------


def truncate_file(path: str | Path, keep_fraction: float = 0.5) -> int:
    """Cut *path* short, as a crash mid-write would; returns the new size.

    ``keep_fraction`` of the current bytes survive (at least 1 — an empty
    file is a *different* failure mode: SQLite treats it as a fresh
    database, not a corrupt one).
    """
    path = Path(path)
    size = path.stat().st_size
    keep = max(1, int(size * keep_fraction))
    with path.open("rb+") as handle:
        handle.truncate(keep)
    return keep


def flip_bytes(path: str | Path, n: int = 64, seed: int = 0) -> list[int]:
    """XOR-invert *n* seeded-random bytes of *path*; returns the offsets.

    Models bit rot or a torn sector: the file keeps its size and header,
    but interior pages are garbage.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return []
    rng = chaos_rng(seed)
    offsets = sorted(rng.randrange(len(data)) for _ in range(n))
    for offset in offsets:
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return offsets


def overwrite_with_garbage(
    path: str | Path, size: int = 1024, seed: int = 0
) -> None:
    """Replace *path* with *size* seeded-random bytes (not a database)."""
    Path(path).write_bytes(chaos_rng(seed).randbytes(size))


# ---------------------------------------------------------------------------
# Process / network chaos
# ---------------------------------------------------------------------------


def kill_after(process, delay: float) -> threading.Timer:
    """SIGKILL *process* (a ``subprocess.Popen``) after *delay* seconds.

    Returns the started timer so callers can ``cancel()`` it when the
    process wins the race.  SIGKILL (not SIGTERM) on purpose: this models
    the death the graceful-drain path never sees.
    """

    def _kill() -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)

    timer = threading.Timer(delay, _kill)
    timer.daemon = True
    timer.start()
    return timer


class SlowClient:
    """A TCP client that sends a partial HTTP request and then stalls.

    Use to verify the server's per-connection read timeout: the
    connection must be dropped by the *server* within its budget instead
    of pinning a handler thread forever::

        with SlowClient(host, port) as client:
            client.send_partial_post("/explain", total_length=1000)
            assert client.server_closed(within=5.0)
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 10.0):
        self.socket = socket.create_connection(
            (host, port), timeout=connect_timeout
        )

    def send_partial_post(self, path: str, total_length: int = 4096) -> None:
        """Send headers claiming *total_length* bytes, then one byte."""
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {total_length}\r\n"
            f"\r\n"
            f"{{"
        )
        self.socket.sendall(head.encode("ascii"))

    def server_closed(self, within: float) -> bool:
        """Whether the server closes this connection in *within* seconds."""
        self.socket.settimeout(within)
        try:
            return self.socket.recv(4096) == b"" or self._drain_to_eof(within)
        except (TimeoutError, OSError):
            return False

    def _drain_to_eof(self, within: float) -> bool:
        # The server may send an error response before closing; keep
        # reading until EOF (closed) or the budget runs out.
        deadline = time.monotonic() + within
        while time.monotonic() < deadline:
            self.socket.settimeout(max(0.05, deadline - time.monotonic()))
            try:
                if self.socket.recv(4096) == b"":
                    return True
            except (TimeoutError, OSError):
                return False
        return False

    def close(self) -> None:
        try:
            self.socket.close()
        except OSError:
            pass

    def __enter__(self) -> "SlowClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Stream-mangling modes a :class:`ChaosProxy` can switch between live.
PROXY_MODES = (
    "forward", "partition", "slow", "half_open", "corrupt_frame", "cut_frame",
)


class ChaosProxy:
    """A mode-switchable TCP proxy on one framed link.

    The dialling side (a supervisor, or a
    :class:`~repro.backends.client.RemoteBackend`) connects to the proxy,
    which forwards to the real server (a ``serve-shard`` host or a
    matcher server).  Point the fleet entry at the proxy's address and
    the proxy at the real port; then flip modes mid-drill::

        proxy = ChaosProxy(shard_host, shard_port)
        host, port = proxy.start()
        ...  # fleet config points shard N at (host, port)
        proxy.partition()   # silence both directions, sockets stay open
        ...                 # supervisor must detect via missed heartbeats
        proxy.heal()        # transparent again; fleet must reconnect

    The mode is read per forwarded chunk, so a switch takes effect on
    in-flight connections, not just new ones.  ``partition`` and
    ``half_open`` drop bytes while keeping the TCP sockets established —
    neither endpoint gets a reset, which is what distinguishes a
    partition from a crash and forces heartbeat-based detection.
    ``corrupt_frame`` (armed via :meth:`corrupt_next_frame`) injects one
    bad-magic frame toward the dialling side and severs that connection,
    modelling a middlebox corrupting the stream.  ``cut_frame`` (armed
    via :meth:`cut_next_frame`) forwards only the first bytes of the next
    reply — a partial frame header — and tears the connection down, the
    failure a crashed or OOM-killed server process produces.  Both are
    one-shot: after firing, the proxy forwards transparently again.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        host: str = "127.0.0.1",
        delay_seconds: float = 0.2,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.delay_seconds = delay_seconds
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self._mode = "forward"
        self._one_shot_armed = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sockets: list[socket.socket] = []
        self._thread: threading.Thread | None = None
        #: Chunks dropped while partitioned / half-open (drill assertions).
        self.dropped_chunks = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def mode(self) -> str:
        with self._lock:
            return self._mode

    def set_mode(self, mode: str) -> None:
        if mode not in PROXY_MODES:
            raise ValueError(
                f"mode must be one of {PROXY_MODES}, got {mode!r}"
            )
        with self._lock:
            self._mode = mode

    def partition(self) -> None:
        """Silence both directions; sockets stay established."""
        self.set_mode("partition")

    def heal(self) -> None:
        """Return to transparent forwarding."""
        self.set_mode("forward")

    def corrupt_next_frame(self) -> None:
        """Arm a one-shot bad-magic frame toward the dialling side."""
        self._arm_one_shot("corrupt_frame")

    def cut_next_frame(self) -> None:
        """Arm a one-shot cut of the next reply, mid frame header."""
        self._arm_one_shot("cut_frame")

    def _arm_one_shot(self, mode: str) -> None:
        with self._lock:
            self._mode = mode
            self._one_shot_armed = True

    # -- lifecycle ------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Begin accepting; returns the (host, port) to dial."""
        self._thread = threading.Thread(
            target=self._accept_loop,
            daemon=True,
            name=f"chaos-proxy-{self.port}",
        )
        self._thread.start()
        return self.host, self.port

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets, self._sockets = self._sockets, []
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the data plane -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            try:
                upstream = socket.create_connection(
                    (self.target_host, self.target_port), timeout=10.0
                )
            except OSError:
                client.close()
                continue
            with self._lock:
                self._sockets += [client, upstream]
            for src, dst, direction in (
                (client, upstream, "c2s"),
                (upstream, client, "s2c"),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(src, dst, direction),
                    daemon=True,
                    name=f"chaos-proxy-{self.port}-{direction}",
                ).start()

    def _take_one_shot(self) -> bool:
        with self._lock:
            armed, self._one_shot_armed = self._one_shot_armed, False
            return armed

    @staticmethod
    def _cut(src: socket.socket, dst: socket.socket, partial: bytes) -> None:
        """Forward *partial* bytes of a frame, then tear the link down."""
        try:
            dst.sendall(partial)
        except OSError:
            pass
        for sock in (dst, src):
            try:
                # shutdown, not just close: the opposite pump thread is
                # blocked in recv on the same fd, and close alone defers the
                # TCP teardown until that syscall returns — the dialling side
                # would hang mid-header until its call timeout instead of
                # seeing the mid-frame EOF this fault exists to produce.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str) -> None:
        while not self._stop.is_set():
            try:
                data = src.recv(65536)
            except OSError:
                break
            if not data:
                break
            mode = self.mode
            if mode == "partition" or (
                mode == "half_open" and direction == "s2c"
            ):
                # Swallow the bytes; the sockets stay open so neither
                # side sees a reset — only heartbeat silence.
                self.dropped_chunks += 1
                continue
            if mode == "corrupt_frame" and direction == "s2c":
                if self._take_one_shot():
                    try:
                        # A frame with a magic no sub-protocol uses: the
                        # dialling side must reject the stream.
                        dst.sendall(b"XXXX" + (0).to_bytes(4, "big"))
                    except OSError:
                        break
                    break  # sever: the stream is garbage from here on
            if mode == "cut_frame" and direction == "s2c":
                if self._take_one_shot():
                    self._cut(src, dst, data[:2])
                    break
            if mode == "slow":
                time.sleep(self.delay_seconds)
            try:
                dst.sendall(data)
            except OSError:
                break
        # Half-close so the peer's reader sees EOF once we stop pumping
        # (unless partitioned, where lingering open sockets are the point).
        if self.mode not in ("partition", "half_open"):
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:
                    pass


def overload_burst(make_call, n: int, timeout: float = 120.0) -> list:
    """Release *n* calls of ``make_call(slot_index)`` simultaneously.

    All threads block on a barrier, fire together, and each slot records
    either its return value or the exception it raised.  Returns the
    per-slot list — the admission-control drills sort the outcomes into
    admitted / shed afterwards.
    """
    results: list = [None] * n
    barrier = threading.Barrier(n)

    def _run(slot: int) -> None:
        barrier.wait()
        try:
            results[slot] = make_call(slot)
        except Exception as error:  # noqa: BLE001 - outcome data, not a crash
            results[slot] = error

    threads = [
        threading.Thread(target=_run, args=(slot,), daemon=True)
        for slot in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    return results
