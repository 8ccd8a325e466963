"""The in-process workloads: ``explain`` (the library call) and ``bulk``
(dataset-scale jobs with store dedup, journal and streaming summary)."""

from __future__ import annotations

import time

from common import (
    REQUEST,
    Check,
    Context,
    Outcome,
    Sample,
    Window,
    build_system,
    busy_windows,
    canonical,
    cold_copy,
    digest,
    draw,
    median_rate,
    reference_payloads,
    spread_order,
    timed,
    trace_overhead,
)
from layers import Tracer, counter_delta, counter_sum, per_layer_metrics

def run_explain(ctx: Context) -> Outcome:
    """1 caller, closed loop, ``compute_explanation_payload`` on S-WA.

    Every pair is explained twice in a row.  The first request computes
    (a miss) and is the workload proper: ``p50_ms``, ``p95_ms`` and
    throughput count only these.  The second is a probe that finds all
    its rows in the engine's prediction cache (a hit), so it costs
    sampling, rebuild and surrogate fit but no matcher call; it counts
    only for ``hit_p50_ms``.
    """
    from repro.core.engine import PredictionEngine
    from repro.service import request as request_module
    from repro.service.request import ExplainRequest
    from repro.service.service import compute_explanation_payload

    scale = ctx.scale
    (dataset, matcher, fingerprint), setups = timed(
        lambda: build_system("S-WA", 2000), scale.setups
    )
    order = [
        dataset.pairs[row]
        for row in spread_order(dataset, range(len(dataset)), draw(ctx.seed, "explain"))
    ]
    warmup, order = order[0], order[1:]
    checked = order[:scale.check_pairs]

    def explain(pair, model, engine):
        request = ExplainRequest(pair=pair, **REQUEST)
        key = request_module.request_key(fingerprint, request)
        return compute_explanation_payload(model, engine, fingerprint, key, request)

    tracer = Tracer()
    samples: list[Sample] = []
    seen: dict[int, list[dict]] = {pair.pair_id: [] for pair in checked}
    traced_engines: list[tuple] = []  # (engine, counters at the switch)
    failed = 0
    matcher_rows = 0
    window = Window(ctx.seconds, ctx.trace, min_ops=2 * len(checked))
    next_pair = 0
    try:
        while not window.over(len(samples)) and next_pair < len(order):
            # Every rep starts cold on new pairs: fresh engine, cold
            # matcher memo, and one untimed pair.
            rep = order[next_pair:next_pair + scale.explain_pairs]
            next_pair += len(rep)
            model = cold_copy(matcher)
            engine = PredictionEngine(model)
            explain(warmup, model, engine)
            issued = engine.stats.calls_issued
            if window.phase:
                traced_engines.append((engine, engine.stats.as_dict()))
            for pair in rep:
                for repeat in (False, True):
                    if window.switch_due(len(samples)):
                        traced_engines.append((engine, engine.stats.as_dict()))
                        tracer.install()
                    started = time.perf_counter()
                    try:
                        payload = explain(pair, model, engine)
                    except Exception:  # noqa: BLE001 - counted, run continues
                        failed += 1
                        continue
                    samples.append(Sample(
                        window.phase, repeat, time.perf_counter() - started,
                        probe=repeat,
                    ))
                    if pair.pair_id in seen:
                        seen[pair.pair_id].append(payload)
                if window.over(len(samples)):
                    break
            matcher_rows += engine.stats.calls_issued - issued
        ended = time.perf_counter()
    finally:
        tracer.uninstall()

    throughput = {}
    for phase in (0, 1):
        busy = [s.seconds for s in samples if s.phase == phase and not s.probe]
        if busy:
            throughput[phase] = median_rate(busy_windows(busy))

    reference = reference_payloads(matcher, fingerprint, checked)
    first = [seen[pair.pair_id][0] for pair in checked]
    stable = all(
        len({canonical(payload) for payload in payloads}) == 1
        for payloads in seen.values()
    )
    checks = [
        Check("every request succeeded", failed == 0, f"{failed} failed"),
        Check(
            "cache-answered repeats give byte-identical payloads", stable,
            f"{sum(len(v) for v in seen.values())} payloads of "
            f"{len(checked)} pairs",
        ),
        Check(
            "payloads equal a fresh in-process computation",
            [canonical(p) for p in first] == [canonical(p) for p in reference],
            f"{len(reference)} pairs",
        ),
    ]

    layer_metrics = layers = None
    if ctx.trace and window.switched_at is not None:
        layers = tracer.snapshot()
        engine_counters = counter_sum(
            counter_delta(engine.stats.as_dict(), baseline)
            for engine, baseline in traced_engines
        )
        traced_ops = sum(1 for s in samples if s.phase == 1)
        layer_metrics = per_layer_metrics(
            layers, ended - window.switched_at, traced_ops,
            engine=engine_counters, extra=trace_overhead(samples),
        )
    return Outcome(
        parameters={
            "dataset": "S-WA", "size_cap": 2000, "request": REQUEST,
            "pairs_per_rep": scale.explain_pairs, "pairs": next_pair,
            "loop": "closed, 1 caller; each pair, then a cache-hit probe of it",
        },
        setup_s=setups,
        samples=samples,
        throughput=throughput,
        attempted=len(samples) + failed,
        failed=failed,
        checks=checks,
        weight_digest=digest(first),
        matcher_rows=matcher_rows,
        layer_metrics=layer_metrics,
        layers=layers,
    )


class _Stop(Exception):
    """Raised from the chunk callback when the window is over."""


def run_bulk(ctx: Context) -> Outcome:
    """``BulkJob`` over a pair list of S-BR rows, fresh store per rep."""
    from repro.bulk import BulkJob, BulkJobSpec
    from repro.bulk.source import PairListSource
    from repro.service.request import request_key
    from repro.service.store import ExplanationStore

    scale = ctx.scale
    # S-BR sets up in ~0.1 s, so take more set-ups for a steady median.
    (dataset, matcher, fingerprint), setups = timed(
        lambda: build_system("S-BR", None), 3 * scale.setups
    )
    chunk = scale.chunk_size
    fresh_per_group = 3 * chunk
    rows = spread_order(dataset, range(len(dataset)), draw(ctx.seed, "bulk"))
    rows = rows[:scale.bulk_groups * fresh_per_group]
    repeats = draw(ctx.seed, "bulk-repeats")
    listing = []
    for start in range(0, len(rows), fresh_per_group):
        fresh = rows[start:start + fresh_per_group]
        # Three chunks of first copies, then one chunk of second copies of
        # rows from those three: a pure-hit chunk for the store probe.
        listing += fresh
        listing += [int(row) for row in repeats.choice(fresh, chunk, replace=False)]
    pair_list = ctx.scratch / "bulk-pairs.txt"
    pair_list.write_text("".join(f"{row}\n" for row in listing))
    spec = BulkJobSpec(
        method=REQUEST["method"], samples=REQUEST["samples"],
        explainer=REQUEST["explainer"], seed=REQUEST["seed"], chunk_size=chunk,
    )

    # Per-row compute time, timed where the bulk runner calls it.
    row_timer = Tracer(
        sites=(("bulk.compute", "repro.bulk.job",
                "compute_explanation_payload", None),),
        sampled=frozenset({"bulk.compute"}),
    )
    tracer = Tracer()
    samples: list[Sample] = []
    # Each 4-chunk cycle (3 first-copy chunks, 1 repeat chunk) is one
    # throughput window: phase -> [(seconds, rows), ...].
    cycles: dict[int, list] = {0: [], 1: []}
    traced_jobs: list[tuple] = []  # (job, engine counters, store counters)
    state = {"timed": 0, "mark": 0.0, "cycle": [0.0, 0]}
    # At least one whole rep, so the pure-hit chunks are always measured.
    window = Window(ctx.seconds, ctx.trace, min_ops=len(listing))

    def on_chunk(index, job):
        # A miss row's latency is its compute time; a deduplicated row's
        # is its share of the pure-hit chunk's wall time.
        now = time.perf_counter()
        wall = now - state["mark"]
        state["mark"] = now
        size = min(chunk, len(listing) - index * chunk)
        durations = row_timer.totals["bulk.compute"].durations
        computed = durations[state["timed"]:]
        state["timed"] = len(durations)
        phase = window.phase
        if index % 4 == 3:
            samples.extend(Sample(phase, True, wall / size) for _ in range(size))
        samples.extend(Sample(phase, False, seconds) for seconds in computed)
        if index % 4 == 0:
            state["cycle"] = [0.0, 0]
        state["cycle"][0] += wall
        state["cycle"][1] += size
        if index % 4 == 3:
            cycles[phase].append(tuple(state["cycle"]))
            if window.switch_due(len(samples)):
                traced_jobs.append(
                    (job, job.engine.stats.as_dict(), job.store.stats.as_dict())
                )
                tracer.install()
        if window.over(len(samples)):
            raise _Stop

    def bulk_counter(job, name: str) -> float:
        return sum(
            value
            for family in job.metrics.collect()
            if family["name"] == name
            for _, value in family["samples"]
        )

    row_timer.install()
    stores = []
    counted = {"computed": 0.0, "dedup": 0.0, "failed": 0.0}
    matcher_rows = 0
    try:
        rep = 0
        while not window.over(len(samples)):
            rep_dir = ctx.scratch / f"bulk-rep-{rep}"
            model = cold_copy(matcher)
            state["mark"] = time.perf_counter()
            store = ExplanationStore(rep_dir / "store")
            stores.append(store)
            job = BulkJob(
                model, PairListSource(dataset, pair_list), spec=spec,
                store=store, run_dir=rep_dir / "run", on_chunk=on_chunk,
            )
            if window.phase:
                traced_jobs.append((job, None, None))
            try:
                job.run()
            except _Stop:
                pass
            counted["computed"] += bulk_counter(job, "repro_bulk_computed_total")
            counted["dedup"] += bulk_counter(job, "repro_bulk_dedup_hits_total")
            counted["failed"] += bulk_counter(job, "repro_bulk_failures_total")
            matcher_rows += job.engine.stats.calls_issued
            rep += 1
        ended = time.perf_counter()
    finally:
        tracer.uninstall()
        row_timer.uninstall()
        for store in stores:
            store.close()
    failures = int(counted["failed"])

    throughput = {
        phase: median_rate(windows) for phase, windows in cycles.items() if windows
    }
    checked = [dataset.pairs[row] for row in listing[:scale.check_pairs]]
    reference = reference_payloads(matcher, fingerprint, checked)
    with ExplanationStore(ctx.scratch / "bulk-rep-0" / "store") as store:
        stored = store.get_many(
            [request_key(fingerprint, spec.request_for(pair)) for pair in checked]
        )
    stored_payloads = [
        stored.get(request_key(fingerprint, spec.request_for(pair)))
        for pair in checked
    ]
    hits = sum(1 for s in samples if s.hit)
    checks = [
        Check("every row explained", failures == 0, f"{failures} failed"),
        Check(
            "stored payloads equal in-process payloads",
            [canonical(p) for p in stored_payloads]
            == [canonical(p) for p in reference],
            f"{len(checked)} rows",
        ),
        Check(
            "second copies were served by the store, first copies computed",
            counted["dedup"] == hits and counted["computed"] == len(samples) - hits,
            f"{hits} deduplicated rows, {len(samples) - hits} computed",
        ),
    ]
    layer_metrics = layers = None
    if ctx.trace and window.switched_at is not None:
        layers = tracer.snapshot()
        engine_counters = counter_sum(
            counter_delta(job.engine.stats.as_dict(), engine_base)
            for job, engine_base, _ in traced_jobs
        )
        store_counters = counter_sum(
            counter_delta(job.store.stats.as_dict(), store_base)
            for job, _, store_base in traced_jobs
        )
        layer_metrics = per_layer_metrics(
            layers, ended - window.switched_at,
            sum(1 for s in samples if s.phase == 1),
            engine=engine_counters, store=store_counters,
            extra=trace_overhead(samples),
        )
    return Outcome(
        parameters={
            "dataset": "S-BR", "request": REQUEST, "chunk_size": chunk,
            "rows_per_rep": len(listing), "distinct_per_rep": len(rows),
            "layout": "3 chunks of first copies, then 1 chunk of repeats",
        },
        setup_s=setups,
        samples=samples,
        throughput=throughput,
        attempted=len(samples) + failures,
        failed=failures,
        checks=checks,
        weight_digest=digest(stored_payloads),
        matcher_rows=matcher_rows,
        layer_metrics=layer_metrics,
        layers=layers,
    )
