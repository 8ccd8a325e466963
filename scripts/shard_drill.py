#!/usr/bin/env python
"""Kill-a-shard chaos drill of multi-process serving (CI shard-chaos job).

Boots the real ``repro-em serve --http --shards 3`` CLI, puts it under
sustained load, SIGKILLs one shard *process* (pid taken from
``/healthz``, exactly what an OOM killer would do), and asserts the
supervisor's contract:

1. **zero lost requests** — every admitted request gets a terminal
   response; waiters stranded on the dead shard either fail over
   transparently or receive the *retryable* ``shard_failed`` 503, and
   every retry succeeds — no client is ever left hanging and no request
   silently vanishes;
2. **degraded, not down** — while the shard is dead, ``/healthz`` stays
   200 with the victim listed in ``degraded`` (the ring routes around
   it); it never reports the whole service down;
3. **recovery** — the supervisor restarts the shard (capped backoff) and
   ``/healthz`` returns to fully healthy with ``restarts`` incremented;
4. **observability** — ``/metrics`` rolls up per-shard series
   (``shard="N"`` labels) and counts the death and restart, and the
   ``{"op": "stats"}`` router block reports the same restart count;
5. **clean drain** — SIGTERM still drains the whole fleet within its
   budget, exit code 0.

Everything is observable from the outside; a failure reproduces.  Run
locally with::

    PYTHONPATH=src python scripts/shard_drill.py

``--transport tcp`` runs the identical drill over the cross-host fleet
path instead of pipe shards forked from the fork server: real
``serve-shard`` host processes on localhost, a ``--fleet`` supervisor
dialing them over TCP, and a standby host that must adopt the victim's
shard id after the SIGKILL (host loss, not crash-restart).  The two
transports must behave identically from the outside — same
zero-lost-request contract, same degraded-not-down reading, same clean
drain.

The drill also reports, without a bound, the start time: the seconds
from fleet construction until every shard is ``live``, as the
supervisor logs it; and the restart time: the seconds from its SIGKILL
until ``/healthz`` shows the victim ``live`` with ``restarts >= 1``.
Pass ``--artifacts-dir DIR`` to keep the transcript, the supervisor log
and the final metrics JSON (with the two times as ``drill_start_s`` and
``drill_restart_s``) for CI upload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

SEED = 11
N_SHARDS = 3
DATASET_ARGS = [
    "--dataset", "S-BR", "--size-cap", "150", "--samples", "32",
    "--seed", str(SEED),
]
SHARD_ARGS = [
    "--shards", str(N_SHARDS),
    "--heartbeat-interval", "0.1",
    "--heartbeat-timeout", "2.0",
    "--restart-backoff", "0.2",
    "--drain-timeout", "30",
]
FLEET_ARGS = [
    "--connect-timeout", "1.0",
    "--connect-budget", "2.0",
    "--host-loss-after", "2",
]
#: The supervisor's log line once every shard is live (``--verbose``).
FLEET_LIVE = re.compile(r"fleet live: \d+ shard\(s\) in ([0-9.]+)s")
#: Retryable wire codes: the drill retries these, and the retries must
#: succeed — anything else is a lost request.
RETRYABLE = {"shard_failed", "host_lost", "overloaded", "cancelled"}


def _await_banner(process, prefix: str, what: str, timeout: float = 180.0):
    """Read stderr until the startup banner; returns (address, lines)."""
    stderr_lines: list[str] = []
    address = None
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        stderr_lines.append(line)
        if line.startswith(prefix):
            address = line[len(prefix):].split()[0]
            break
        if not line and process.poll() is not None:
            break
    if address is None:
        print("".join(stderr_lines), file=sys.stderr)
        raise SystemExit(f"{what} did not come up")

    def pump() -> None:  # keep draining so the server never blocks on stderr
        for line in process.stderr:
            stderr_lines.append(line)

    threading.Thread(target=pump, daemon=True).start()
    return address, stderr_lines


def boot_http(store_dir: Path, model_dir: Path, fleet_path: Path | None = None):
    """Boot the sharded server on an ephemeral port; (process, url, stderr)."""
    shard_args = list(SHARD_ARGS)
    if fleet_path is not None:
        shard_args += ["--fleet", str(fleet_path), *FLEET_ARGS]
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "--verbose", "serve",
            *DATASET_ARGS,
            "--store-dir", str(store_dir), "--model-dir", str(model_dir),
            "--http", "127.0.0.1:0", *shard_args,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    address, collected = _await_banner(
        process, "serving on ", "serve --http --shards"
    )
    return process, address, collected


def spawn_shard_host(store_dir: Path | None = None):
    """One ``serve-shard`` host process; (process, "host:port", stderr)."""
    command = [sys.executable, "-m", "repro.cli", "serve-shard", "--port", "0"]
    if store_dir is not None:
        command += ["--store-dir", str(store_dir)]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    address, collected = _await_banner(
        process, "serving shard on ", "serve-shard"
    )
    return process, address, collected


def spawn_fleet(root: Path, n_shards: int, standbys: int = 1):
    """*n_shards* + *standbys* shard hosts and their fleet.json."""
    hosts = []
    for index in range(n_shards + standbys):
        hosts.append(spawn_shard_host(root / f"host{index}-store"))
    document = {
        "shards": [
            {
                "id": index,
                "host": hosts[index][1].rsplit(":", 1)[0],
                "port": int(hosts[index][1].rsplit(":", 1)[1]),
            }
            for index in range(n_shards)
        ],
        "standbys": [
            {
                "host": hosts[index][1].rsplit(":", 1)[0],
                "port": int(hosts[index][1].rsplit(":", 1)[1]),
            }
            for index in range(n_shards, n_shards + standbys)
        ],
    }
    fleet_path = root / "fleet.json"
    fleet_path.write_text(json.dumps(document, indent=2))
    return hosts, fleet_path


def get_json(url: str, timeout: float = 30.0) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post_explain(url: str, payload: dict, timeout: float = 120.0) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + "/explain",
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class LoadResult:
    """Per-request outcome ledger of the sustained load."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.completed = 0
        self.retried = 0
        self.lost: list[str] = []


def run_load(url: str, n_requests: int, result: LoadResult, threads: int = 4):
    """*n_requests* explain calls with retry-on-retryable, concurrently."""

    def one(record: int) -> None:
        payload = {"record": record % 100, "method": "single"}
        for attempt in range(6):
            try:
                status, body = post_explain(url, payload)
            except Exception as error:  # noqa: BLE001 - connection-level loss
                with result.lock:
                    result.lost.append(f"record {record}: transport {error}")
                return
            if status == 200:
                with result.lock:
                    result.completed += 1
                    if attempt:
                        result.retried += 1
                return
            if body.get("code") in RETRYABLE:
                time.sleep(0.2 * (attempt + 1))
                continue
            with result.lock:
                result.lost.append(
                    f"record {record}: terminal {status} {body.get('code')}"
                )
            return
        with result.lock:
            result.lost.append(f"record {record}: retries exhausted")

    pending = list(range(n_requests))
    pool: list[threading.Thread] = []
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                record = pending.pop()
            one(record)

    for _ in range(threads):
        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        pool.append(thread)
    return pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts-dir", type=Path, default=None,
        help="keep the supervisor log and metrics JSON here for CI upload",
    )
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument(
        "--transport", choices=("pipe", "tcp"), default="pipe",
        help="pipe: shard processes forked from the fork server "
             "(default); tcp: serve-shard host processes behind --fleet, "
             "with a standby replacing the killed host",
    )
    args = parser.parse_args(argv)
    failures: list[str] = []
    transcript: list[str] = []

    def check(condition: bool, what: str) -> None:
        line = f"  [{'ok' if condition else 'FAIL'}] {what}"
        print(line, flush=True)
        transcript.append(line)
        if not condition:
            failures.append(what)

    started = time.monotonic()
    metrics_document: dict = {}
    start_s = restart_s = None
    with tempfile.TemporaryDirectory() as root_text:
        root = Path(root_text)
        hosts: list = []
        fleet_path = None
        if args.transport == "tcp":
            print(f"drill: spawning {N_SHARDS} serve-shard hosts + 1 standby")
            hosts, fleet_path = spawn_fleet(root, N_SHARDS, standbys=1)
        process, url, server_log = boot_http(
            root / "store", root / "models", fleet_path
        )
        try:
            start_s = next(
                (
                    float(match.group(1))
                    for match in map(FLEET_LIVE.search, server_log)
                    if match
                ),
                None,
            )
            # Report-only: no bound, so CI artifacts track start time.
            line = (
                "  [info] start: "
                + ("not logged" if start_s is None else f"{start_s:.2f}s")
                + " from fleet construction to every shard live"
            )
            print(line, flush=True)
            transcript.append(line)
            print("drill: sharded server up; priming and reading /healthz")
            status, body = post_explain(url, {"record": 0, "method": "single"})
            check(status == 200, "priming request succeeds")
            status, health = get_json(url + "/healthz")
            check(status == 200, "healthz is 200 with all shards live")
            check(
                len(health.get("shards", {})) == N_SHARDS,
                f"healthz reports {N_SHARDS} shards",
            )
            victim_id = "0"
            if args.transport == "tcp":
                # The victim is the whole host process, whose pid the
                # drill owns; health instead names its host address.
                victim_pid = hosts[0][0].pid
                check(
                    health["shards"][victim_id]["host"] == hosts[0][1],
                    "healthz maps the victim shard to its fleet host",
                )
            else:
                victim_pid = health["shards"][victim_id]["pid"]
                check(
                    bool(victim_pid), "healthz exposes the victim shard's pid"
                )

            print(f"drill: sustained load, then SIGKILL shard {victim_id} "
                  f"(pid {victim_pid})")
            result = LoadResult()
            pool = run_load(url, args.requests, result)
            time.sleep(1.0)  # let the load reach every shard
            os.kill(victim_pid, signal.SIGKILL)
            killed_at = time.monotonic()

            # Watch the victim until it is live again.  While it is down
            # (with a 0.2s restart backoff the window is tight) the
            # service must not report itself down; the seconds from the
            # SIGKILL until it is back are the restart time.
            degraded_seen = False
            deadline = killed_at + 30
            while time.monotonic() < deadline:
                status, health = get_json(url + "/healthz")
                if status == 200 and victim_id in (health.get("degraded") or []):
                    degraded_seen = True
                shard = health.get("shards", {}).get(victim_id, {})
                if shard.get("state") == "live" and shard.get("restarts", 0) >= 1:
                    restart_s = time.monotonic() - killed_at
                    break
                time.sleep(0.05)
            for thread in pool:
                thread.join(timeout=300)
            check(
                result.completed == args.requests,
                f"zero lost requests: {result.completed}/{args.requests} "
                f"completed ({result.retried} retried, "
                f"{len(result.lost)} lost: {result.lost[:3]})",
            )
            if degraded_seen:
                check(True, "healthz reported degraded (not down) while dead")

            print("drill: waiting for supervisor restart")
            recovered = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, health = get_json(url + "/healthz")
                shard = health.get("shards", {}).get(victim_id, {})
                if (
                    status == 200
                    and shard.get("state") == "live"
                    and shard.get("restarts", 0) >= 1
                    and not health.get("degraded")
                ):
                    recovered = True
                    break
                time.sleep(0.1)
            check(recovered, "killed shard restarted and healthz fully healthy")
            # Report-only: no bound, so CI artifacts track restart time.
            line = (
                "  [info] restart: "
                + ("not observed" if restart_s is None else f"{restart_s:.2f}s")
                + " from SIGKILL to the victim live with restarts >= 1 "
                "(includes failure detection and the restart backoff)"
            )
            print(line, flush=True)
            transcript.append(line)
            if args.transport == "tcp":
                status, health = get_json(url + "/healthz")
                check(
                    hosts[0][1] in health.get("lost_hosts", []),
                    "healthz lists the killed host as lost",
                )
                check(
                    health["shards"][victim_id]["host"] == hosts[-1][1],
                    "victim shard id was replaced onto the standby host",
                )
                check(
                    health.get("standbys_available") == 0,
                    "the standby pool is spent",
                )
            status, body = post_explain(url, {"record": 0, "method": "single"})
            check(status == 200, "post-recovery request succeeds")

            with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
                metrics_text = resp.read().decode("utf-8")
            check(
                all(f'shard="{i}"' in metrics_text for i in range(N_SHARDS)),
                "metrics roll up every shard with shard labels",
            )
            check(
                "repro_shard_restarts" in metrics_text,
                "metrics count the supervisor restart",
            )
            # The stats op's router block and /metrics read the same
            # instruments, so their restart counts must agree.
            status, body = post_explain(url, {"op": "stats"})
            stats_restarts = body.get("stats", {}).get("router", {}).get(
                "restarts"
            )
            scraped = re.search(
                r'^repro_shard_restarts\{[^}]*shard="router"[^}]*\} (\S+)$',
                metrics_text, re.MULTILINE,
            )
            scraped_restarts = (
                None if scraped is None else float(scraped.group(1))
            )
            check(
                status == 200
                and stats_restarts is not None
                and stats_restarts >= 1
                and stats_restarts == scraped_restarts,
                f"stats op router restarts ({stats_restarts}) equal the "
                f"scraped repro_shard_restarts ({scraped_restarts})",
            )
            if args.transport == "tcp":
                check(
                    'host="' in metrics_text,
                    "remote shard series carry host labels",
                )
            status, body = post_explain(url, {"op": "metrics"})
            check(status == 200, "metrics op returns the fleet JSON document")
            metrics_document = body.get("metrics", {})

            print("drill: SIGTERM drains the fleet")
            process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                code = None
            check(code == 0, f"SIGTERM: clean exit code (got {code})")
            log_text = "".join(server_log)
            check("drain:" in log_text, "drain summary printed")
            if args.transport == "tcp":
                # The supervisor's drain decommissions every adopted
                # host: their processes must exit on their own.
                drained_hosts = 0
                for host_process, _, _ in hosts[1:]:
                    try:
                        host_process.wait(timeout=30)
                        drained_hosts += 1
                    except subprocess.TimeoutExpired:
                        pass
                check(
                    drained_hosts == len(hosts) - 1,
                    f"drain shut down {drained_hosts}/{len(hosts) - 1} "
                    f"surviving shard hosts",
                )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            for host_process, _, _ in hosts:
                if host_process.poll() is None:
                    host_process.kill()
                    host_process.wait()

        if args.artifacts_dir is not None:
            args.artifacts_dir.mkdir(parents=True, exist_ok=True)
            (args.artifacts_dir / "shard_transcript.txt").write_text(
                "\n".join(transcript) + "\n"
            )
            (args.artifacts_dir / "supervisor_log.txt").write_text(
                "".join(server_log)
            )
            (args.artifacts_dir / "shard_metrics.json").write_text(
                json.dumps(
                    {
                        **metrics_document,
                        "drill_start_s": start_s,
                        "drill_restart_s": restart_s,
                    },
                    indent=2, sort_keys=True,
                )
            )
            print(f"artifacts kept in {args.artifacts_dir}")

    elapsed = time.monotonic() - started
    print(
        f"shard_drill ({args.transport}) "
        f"{'FAILED' if failures else 'passed'} in {elapsed:.0f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
