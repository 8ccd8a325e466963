"""The serving workloads: ``serve`` (one service behind HTTP in a child
process, open loop) and ``fleet`` (two shard processes, closed loop)."""

from __future__ import annotations

import asyncio
import json
import queue
import subprocess
import sys
import threading
import time

from common import (
    HARNESS_DIR,
    REQUEST,
    Check,
    Context,
    Outcome,
    Sample,
    build_system,
    canonical,
    digest,
    draw,
    percentile,
    reference_payloads,
    spread_order,
    trace_overhead,
)
from layers import Tracer, counter_delta, counter_sum, per_layer_metrics

#: Serve's offered load (requests per second) and the share of it that
#: goes to cold records.
SERVE_RATE = 30.0
SERVE_COLD_SHARE = 0.1

#: A serve run whose load generator sent its 99th-percentile request more
#: than this late measured the generator, not the server.
MAX_LAG_P99_S = 0.050


def hot_and_cold(dataset, seed: int, n_hot: int):
    """The hot rows (requested repeatedly, pre-warmed) and the cold rows
    (each requested once).  ``serve`` and ``fleet`` share the hot set, so
    their weight digests agree for one seed."""
    order = spread_order(dataset, range(len(dataset)), draw(seed, "hot"))
    hot = order[:n_hot]
    cold = spread_order(dataset, order[n_hot:], draw(seed, "cold"))
    return hot, cold


def _p50(samples, phase: int, hit: bool) -> float:
    values = [s.seconds for s in samples if s.phase == phase and s.hit == hit]
    return percentile(values, 50) if values else 0.0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class Child:
    """The serving child and its stdin/stdout command channel."""

    def __init__(self, args: list[str], ready_timeout: float = 120.0) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HARNESS_DIR / "serve_child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            bufsize=1,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self._next(ready_timeout)
            if not line.startswith("ready "):
                raise RuntimeError(f"serving child said {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("serving child did not answer") from None
        if line is None:
            raise RuntimeError(
                f"serving child exited with {self.process.wait(timeout=10)}"
            )
        return line

    def command(self, name: str, timeout: float = 60.0) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return json.loads(self._next(timeout))

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._reader.join(timeout=10)
        self.process.stdout.close()


def _request_body(row: int) -> str:
    return json.dumps({"record": row, **REQUEST})


async def _post_async(port: int, row: int) -> tuple[int, bytes]:
    """One ``POST /explain`` on its own connection; the server speaks
    HTTP/1.0, so it closes the connection after answering."""
    body = _request_body(row).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /explain HTTP/1.0\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


def _open_loop(port: int, plan, start: float) -> list:
    """Send *plan* ``[(due offset, row, hot), ...]`` on schedule.

    One thread runs every request as its own task, so a slow response
    never holds back the next send: the loop stays open.  Latency runs
    from the due time.  Returns per request ``(lag, latency, status,
    body)``; status 0 means the connection failed.
    """
    results: list = [None] * len(plan)

    async def send(index: int, offset: float, row: int) -> None:
        due = start + offset
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(_post_async(port, row), 120)
        except (OSError, ValueError, IndexError, asyncio.TimeoutError):
            status, body = 0, b""
        results[index] = (sent - due, time.perf_counter() - due, status, body)

    async def main() -> None:
        await asyncio.gather(
            *(send(index, offset, row) for index, (offset, row, _) in enumerate(plan))
        )

    asyncio.run(main())
    return results


def _served_payload(status: int, body: bytes) -> dict | None:
    if status != 200:
        return None
    response = json.loads(body)
    return response.get("result") if response.get("ok") else None


def run_serve(ctx: Context) -> Outcome:
    """Poisson arrivals over HTTP: hot rows hit the store, cold rows compute."""
    from repro.core.serialize import save_matcher

    scale = ctx.scale
    dataset, matcher, fingerprint = build_system("S-WA", 2000)
    artifact = ctx.scratch / "matcher.pkl"
    save_matcher(matcher, artifact)
    hot, cold = hot_and_cold(dataset, ctx.seed, scale.hot)

    # Hot requests are a Poisson stream conditioned on its count (uniform
    # times), so throughput does not drift with the seed.  Cold records
    # arrive evenly paced, like an ingestion feed: a miss never waits
    # behind another, which would make miss latency grow faster than the
    # machine slows.
    arrivals = draw(ctx.seed, "serve-arrivals")
    n = max(2, round(SERVE_RATE * ctx.seconds))
    n_cold = max(1, round(n * SERVE_COLD_SHARE))
    pace = ctx.seconds / n_cold
    phase = arrivals.uniform()
    plan = sorted(
        [(float(offset), hot[int(arrivals.integers(len(hot)))], True)
         for offset in arrivals.uniform(0.0, ctx.seconds, n - n_cold)]
        + [((index + phase) * pace, row, False)
           for index, row in enumerate(cold[:n_cold])]
    )

    hot_pairs = [dataset.pairs[row] for row in hot]
    reference = reference_payloads(matcher, fingerprint, hot_pairs)
    child_args = ["--artifact", str(artifact), "--dataset", "S-WA",
                  "--size-cap", "2000"]
    setups: list[float] = []
    child = None
    try:
        for attempt in range(scale.setups):
            if child is not None:
                child.close()
            started = time.perf_counter()
            child = Child(
                child_args + ["--store", str(ctx.scratch / f"serve-store-{attempt}")]
            )
            setups.append(time.perf_counter() - started)

        # Pre-warm: the hot rows are computed by the child now, so every
        # hot request in the window is a store hit.
        warmed = [asyncio.run(_post_async(child.port, row)) for row in hot]
        before = child.command("stats")

        start = time.perf_counter() + 0.1
        results: list = []
        generator = threading.Thread(
            target=lambda: results.extend(_open_loop(child.port, plan, start)),
            name="load-generator",
        )
        generator.start()
        switched_at = None
        if ctx.trace:
            time.sleep(max(0.0, start + ctx.seconds / 2 - time.perf_counter()))
            child.command("trace")
            switched_at = time.perf_counter()
        generator.join(timeout=ctx.seconds + 300)
        ended = time.perf_counter()
        after = child.command("stats")
        dump = child.command("dump") if ctx.trace else None
    finally:
        if child is not None:
            child.close()

    middle = ctx.seconds / 2 if ctx.trace else float("inf")
    samples: list[Sample] = []
    failed = 0
    served_hot: dict[int, dict] = {}
    cold_served: dict[int, dict] = {}
    finished = {0: 0.0, 1: 0.0}
    lags = []
    for (offset, row, is_hot), result in zip(plan, results or [None] * len(plan)):
        if result is None:
            failed += 1
            continue
        lag, latency, status, body = result
        payload = _served_payload(status, body)
        if payload is None:
            failed += 1
            continue
        phase = int(offset >= middle)
        lags.append(lag)
        samples.append(Sample(phase, is_hot, latency))
        finished[phase] = max(finished[phase], offset + latency)
        (served_hot if is_hot else cold_served).setdefault(row, payload)
    throughput = {}
    for phase, phase_start in ((0, 0.0), (1, middle)):
        count = sum(1 for s in samples if s.phase == phase)
        if count:
            throughput[phase] = count / (finished[phase] - phase_start)

    warm_payloads = [_served_payload(status, body) for status, body in warmed]
    cold_checked = list(cold_served)[:scale.check_pairs // 2]
    cold_reference = reference_payloads(
        matcher, fingerprint, [dataset.pairs[row] for row in cold_checked]
    )
    expected = dict(zip(hot, reference))
    hot_sent = sum(1 for _, _, is_hot in plan if is_hot)
    store_hits = after["store"]["hits"] - before["store"]["hits"]
    computed = after["service"]["computed"] - before["service"]["computed"]
    checks = [
        Check("every response ok", failed == 0, f"{failed} of {len(plan)} failed"),
        Check(
            "hot payloads computed over HTTP equal in-process payloads",
            [canonical(p) for p in warm_payloads] == [canonical(p) for p in reference],
            f"{len(hot)} rows",
        ),
        Check(
            "hot payloads served from the store equal in-process payloads",
            all(canonical(p) == canonical(expected[row]) for row, p in served_hot.items()),
            f"{len(served_hot)} rows",
        ),
        Check(
            "cold payloads equal in-process payloads",
            [canonical(cold_served[row]) for row in cold_checked]
            == [canonical(p) for p in cold_reference],
            f"{len(cold_checked)} rows",
        ),
        Check(
            "every hot request hit the store, every cold one computed",
            store_hits == hot_sent and computed == len(plan) - hot_sent,
            f"{store_hits} store hits of {hot_sent} hot, {computed} computed",
        ),
    ]
    lag_p99 = percentile(lags, 99) if lags else 0.0
    invalid = []
    if lag_p99 > MAX_LAG_P99_S:
        invalid.append(
            f"generator lag p99 {lag_p99 * 1000:.1f} ms > "
            f"{MAX_LAG_P99_S * 1000:.0f} ms"
        )

    layer_metrics = layers = None
    if dump is not None:
        layers = dump["layers"]
        stats = dump["stats"]
        hit_p50 = _p50(samples, 1, True)
        handled = layers.get("server.handle_payload", {}).get("durations") or [0.0]
        extra = trace_overhead(samples)
        if hit_p50:
            extra["server.http_overhead_share"] = (
                hit_p50 - percentile(handled, 50)
            ) / hit_p50
        layer_metrics = per_layer_metrics(
            layers, ended - switched_at, sum(1 for s in samples if s.phase == 1),
            engine=stats["engine"], store=stats["store"],
            service=stats["service"], extra=extra,
        )
        for total in layers.values():
            total.pop("durations", None)
    return Outcome(
        parameters={
            "dataset": "S-WA", "size_cap": 2000, "request": REQUEST,
            "loop": f"open, {SERVE_RATE:g} req/s: hot as a Poisson stream, "
                    "cold evenly paced; one connection per request",
            "hot_rows": len(hot), "cold_share": SERVE_COLD_SHARE,
            "requests": len(plan),
            "throughput_per_s": "completions / time to the last one: reads "
                                "the offered rate until a backlog grows, so "
                                "it detects saturation only",
        },
        setup_s=setups,
        samples=samples,
        throughput=throughput,
        attempted=len(plan),
        failed=failed,
        checks=checks,
        weight_digest=digest(warm_payloads),
        matcher_rows=(after["engine"]["calls_issued"]
                      - before["engine"]["calls_issued"]),
        invalid=invalid,
        report={"generator_lag_p99_ms": lag_p99 * 1000},
        layer_metrics=layer_metrics,
        layers=layers,
    )


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


def _fleet_counters(service) -> dict:
    """Shard counters summed over shards, plus the router's."""
    shards = service.stats_payload()["shards"].values()
    counters = {
        section: counter_sum(
            counter_delta(shard[section], None) for shard in shards
        )
        for section in ("service", "store", "engine")
    }
    router = {"repro_router_requests": "requests",
              "repro_router_failovers": "failovers"}
    counters["router"] = {
        router[family["name"]]: sum(value for _, value in family["samples"])
        for family in service.metrics.collect()
        if family["name"] in router
    }
    return counters


def _store_hit_p50(matcher, requests, payloads, scratch, times: int) -> float:
    """Median in-process store-hit latency: the fleet's hit path minus
    router and transport."""
    from repro.service.service import ExplanationService
    from repro.service.store import ExplanationStore

    with ExplanationStore(scratch / "inprocess-store") as store:
        service = ExplanationService(matcher, store=store)
        try:
            store.put_many(
                [(service.key_for(request), payload)
                 for request, payload in zip(requests, payloads)]
            )
            timings = []
            for index in range(times):
                started = time.perf_counter()
                service.explain(requests[index % len(requests)])
                timings.append(time.perf_counter() - started)
        finally:
            service.close()
    return percentile(timings, 50)


#: The fleet window alternates blocks of hot and cold requests.  Mixed in
#: one stream, a hit that lands on a shard busy computing a miss waits for
#: that process's interpreter lock about half the time, so hit latency
#: splits into two modes and its median jumps between runs.  In blocks,
#: hits measure router, transport and store on idle shards, and misses
#: compute on both shards at once.
FLEET_BLOCKS = ("hit", "miss", "hit", "miss")

#: Shard processes, and client threads: one per shard.
FLEET_SHARDS = 2


def _closed_loop(service, request, picks, deadline: float,
                 served_hot: dict) -> list:
    """One client thread per ``picks`` entry sends that picker's next row
    and waits for the answer, until *deadline*.  Returns ``(row, seconds,
    ok)`` per request and keeps the first payload served for each row in
    *served_hot*."""
    records: list = []
    lock = threading.Lock()

    def client(pick) -> None:
        while time.perf_counter() < deadline:
            with lock:
                row = pick()
            if row is None:
                return
            started = time.perf_counter()
            try:
                payload = service.explain(request(row), timeout=120)
            except Exception:  # noqa: BLE001 - counted as failed
                payload = None
            records.append((row, time.perf_counter() - started, payload is not None))
            if payload is not None:
                with lock:
                    served_hot.setdefault(row, payload)

    threads = [
        threading.Thread(target=client, args=(pick,), name=f"client-{k}",
                         daemon=True)
        for k, pick in enumerate(picks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()) + 300)
    return records


def run_fleet(ctx: Context) -> Outcome:
    """Two local shards, closed loop of two clients, hit and miss blocks."""
    from repro.config import ServiceConfig, ShardConfig
    from repro.service import ShardedService
    from repro.service.request import ExplainRequest

    scale = ctx.scale
    dataset, matcher, fingerprint = build_system("S-WA", 2000)
    hot, cold = hot_and_cold(dataset, ctx.seed, scale.hot)
    hot_choices = draw(ctx.seed, "fleet-hits")

    def request(row: int) -> ExplainRequest:
        return ExplainRequest(pair=dataset.pairs[row], **REQUEST)

    hot_requests = [request(row) for row in hot]
    reference = reference_payloads(
        matcher, fingerprint, [dataset.pairs[row] for row in hot]
    )
    inprocess_hit_p50 = (
        _store_hit_p50(matcher, hot_requests, reference, ctx.scratch, 400)
        if ctx.trace else None
    )

    def start_fleet(attempt: int):
        return ShardedService(
            matcher,
            store_dir=ctx.scratch / f"fleet-store-{attempt}",
            config=ServiceConfig(n_workers=1),
            shard_config=ShardConfig(n_shards=FLEET_SHARDS),
        )

    def pick_hot():
        return hot[int(hot_choices.integers(len(hot)))]

    tracer = Tracer()
    setups: list[float] = []
    service = None
    samples: list[Sample] = []
    failed = 0
    served_hot: dict[int, dict] = {}
    miss_blocks = {0: [0.0, 0], 1: [0.0, 0]}  # phase -> [seconds, misses]
    switched_at = None
    try:
        for attempt in range(scale.setups):
            if service is not None:
                service.close()
            started = time.perf_counter()
            service = start_fleet(attempt)
            setups.append(time.perf_counter() - started)
        warmed = [
            future.result(timeout=300)
            for future in [service.submit(r) for r in hot_requests]
        ]
        before = _fleet_counters(service)
        # In miss blocks client k sends only rows shard k owns, so the two
        # shards compute side by side and no miss queues behind another.
        owned = [
            iter([row for row in cold if service.shard_for(request(row)) == shard])
            for shard in range(FLEET_SHARDS)
        ]
        miss_picks = [lambda rows=rows: next(rows, None) for rows in owned]
        block_seconds = ctx.seconds / len(FLEET_BLOCKS)
        for number, kind in enumerate(FLEET_BLOCKS):
            if ctx.trace and number == len(FLEET_BLOCKS) // 2:
                traced_before = _fleet_counters(service)
                tracer.install()
                switched_at = time.perf_counter()
            phase = int(switched_at is not None)
            started = time.perf_counter()
            if kind == "hit":
                records = _closed_loop(
                    service, request, [pick_hot] * FLEET_SHARDS,
                    started + block_seconds, served_hot,
                )
            else:
                records = _closed_loop(
                    service, request, miss_picks, started + block_seconds, {},
                )
            wall = time.perf_counter() - started
            for _, seconds, ok in records:
                if ok:
                    samples.append(Sample(phase, kind == "hit", seconds))
                else:
                    failed += 1
            if kind == "miss":
                miss_blocks[phase][0] += wall
                miss_blocks[phase][1] += sum(1 for _, _, ok in records if ok)
        ended = time.perf_counter()
        after = _fleet_counters(service)
    finally:
        tracer.uninstall()
        if service is not None:
            service.close()

    # Fleet throughput is computations per second across both shards.
    throughput = {
        phase: misses / seconds
        for phase, (seconds, misses) in miss_blocks.items()
        if misses
    }
    attempted = len(samples) + failed
    hot_sent = sum(1 for s in samples if s.hit)
    expected = dict(zip(hot, reference))
    store_hits = after["store"]["hits"] - before["store"]["hits"]
    computed = after["service"]["computed"] - before["service"]["computed"]
    checks = [
        Check("every request ok", failed == 0, f"{failed} of {attempted} failed"),
        Check(
            "hot payloads computed by the fleet equal in-process payloads",
            [canonical(p) for p in warmed] == [canonical(p) for p in reference],
            f"{len(hot)} rows",
        ),
        Check(
            "hot payloads served by the fleet equal in-process payloads",
            all(canonical(p) == canonical(expected[row]) for row, p in served_hot.items()),
            f"{len(served_hot)} rows",
        ),
        Check(
            "every hot request hit a shard store, every cold one computed",
            store_hits == hot_sent and computed == len(samples) - hot_sent,
            f"{store_hits} store hits of {hot_sent} hot, {computed} computed",
        ),
    ]

    layer_metrics = layers = None
    if switched_at is not None:
        layers = tracer.snapshot()
        delta = {
            section: counter_delta(after[section], traced_before[section])
            for section in after
        }
        extra = trace_overhead(samples)
        fleet_hit_p50 = _p50(samples, 0, True)
        if fleet_hit_p50:
            extra["transport.hit_overhead_share"] = (
                fleet_hit_p50 - inprocess_hit_p50
            ) / fleet_hit_p50
        layer_metrics = per_layer_metrics(
            layers, ended - switched_at, sum(1 for s in samples if s.phase == 1),
            engine=delta["engine"], store=delta["store"],
            router=delta["router"], shards=delta["service"], extra=extra,
        )
    return Outcome(
        parameters={
            "dataset": "S-WA", "size_cap": 2000, "request": REQUEST,
            "loop": f"closed, {FLEET_SHARDS} clients; in miss blocks "
                    "client k sends rows shard k owns",
            "blocks": list(FLEET_BLOCKS),
            "shards": FLEET_SHARDS, "workers_per_shard": 1, "transport": "pipe",
            "hot_rows": len(hot),
        },
        setup_s=setups,
        samples=samples,
        throughput=throughput,
        attempted=attempted,
        failed=failed,
        checks=checks,
        weight_digest=digest(warmed),
        matcher_rows=(after["engine"]["calls_issued"]
                      - before["engine"]["calls_issued"]),
        report=(
            {"inprocess_store_hit_p50_ms": inprocess_hit_p50 * 1000}
            if inprocess_hit_p50 is not None else {}
        ),
        layer_metrics=layer_metrics,
        layers=layers,
    )
