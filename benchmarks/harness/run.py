"""One seeded benchmark harness for the landmark-explanation system.

Runs one or all of four workloads, checks their outputs, prints every
end-to-end metric with its unit and writes one result JSON per workload::

    python3 benchmarks/harness/run.py --workload {explain,serve,bulk,fleet,all}
        [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace``.  The
process exits 0 only when every output check passed.  Seed 0 is the
default; seed 1 is held out for confirming claims.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import (
    DEMOTED,
    FULL,
    ROOT,
    SCHEMA,
    SMOKE,
    Context,
    commit,
    environment,
    percentile,
    stop_children,
    use_source_tree,
)

WORKLOADS = ("explain", "serve", "bulk", "fleet")

DEFAULT_OUT = ROOT / "benchmarks" / "output" / "harness"


def end_to_end(outcome, declared: list[dict]) -> tuple[dict, dict]:
    """(``end_to_end`` metrics, report-only metrics) of the untraced phase.

    Every metric is computed; those *declared* in ``BENCHMARK.json`` are
    the end-to-end metrics and the rest are report-only, the
    :data:`~common.DEMOTED` ones with their unit and measured spread."""
    untraced = [s for s in outcome.samples if s.phase == 0]
    every = [s.seconds * 1000 for s in untraced if not s.probe]
    # Tracing changes no count, so the prediction budget spans the whole
    # window.
    computed_explanations = sum(1 for s in outcome.samples if not s.hit)
    hits = [s.seconds * 1000 for s in untraced if s.hit]
    misses = [s.seconds * 1000 for s in untraced if not s.hit]

    def timing(values, q: float) -> dict:
        value = percentile(values, q) if values else 0.0
        return {
            "value": value,
            "n": len(values),
            "beyond": sum(1 for v in values if v > value),
        }

    computed = {
        "setup_s": {
            "value": statistics.median(outcome.setup_s),
            "n": len(outcome.setup_s),
        },
        "matcher_rows_per_explanation": {
            "value": outcome.matcher_rows / max(1, computed_explanations),
            "n": computed_explanations,
        },
        "throughput_per_s": {"value": outcome.throughput.get(0, 0.0)},
        "p50_ms": timing(every, 50),
        "p95_ms": timing(every, 95),
        "hit_p50_ms": timing(hits, 50),
        "miss_p50_ms": timing(misses, 50),
        "p99_ms": timing(every, 99),
        "hit_p95_ms": timing(hits, 95),
        "miss_p95_ms": timing(misses, 95),
        **{name: {"value": value} for name, value in outcome.report.items()},
    }
    names = {entry["name"] for entry in declared}
    metrics = {name: entry for name, entry in computed.items() if name in names}
    report = {
        name: {**entry, **DEMOTED.get(name, {})}
        for name, entry in computed.items()
        if name not in names
    }
    return metrics, report


def with_units(metrics: dict, declared: list[dict], kind: str) -> dict:
    """Attach each metric's unit from ``BENCHMARK.json``; names must match."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"{kind} metrics drifted from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    out = {}
    for name in units:
        entry = metrics[name]
        entry = dict(entry) if isinstance(entry, dict) else {"value": entry}
        entry["unit"] = units[name]
        out[name] = entry
    return out


def run_workload(name: str, ctx: Context, bench: dict) -> dict:
    from inprocess import run_bulk, run_explain
    from serving import run_fleet, run_serve

    runner = {"explain": run_explain, "serve": run_serve,
              "bulk": run_bulk, "fleet": run_fleet}[name]
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    outcome = runner(ctx)
    metrics, report = end_to_end(outcome, bench["end_to_end"])
    layer_metrics = None
    if outcome.layer_metrics is not None:
        layer_metrics = with_units(
            outcome.layer_metrics, bench["per_layer"], "per-layer"
        )
    env = environment()
    correct = all(check.ok for check in outcome.checks) and not outcome.failed
    return {
        "schema": SCHEMA,
        "workload": name,
        "commit": commit(),
        "started_at": started_at,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "smoke": ctx.scale is SMOKE,
        "environment": env,
        "parameters": outcome.parameters,
        "metrics": with_units(metrics, bench["end_to_end"], "end-to-end"),
        "report_only": report,
        "layer_metrics": layer_metrics,
        "layers": outcome.layers,
        "ops": {
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "error_ratio": outcome.failed / outcome.attempted,
        },
        "checks": [vars(check) for check in outcome.checks],
        "correct": correct,
        "valid": not outcome.invalid,
        "invalid_reasons": outcome.invalid,
        "weight_digest": outcome.weight_digest,
    }


def describe(result: dict, path: Path) -> None:
    env = result["environment"]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['seconds']:g} s  {'traced' if result['trace'] else 'untraced'}"
        f"  {env['nproc']} cores  commit {result['commit'][:12]}"
    )
    shown = [(name, entry, "") for name, entry in result["metrics"].items()]
    shown += [(name, result["report_only"][name], "report-only")
              for name in DEMOTED if name in result["report_only"]]
    for name, entry, note in shown:
        detail = ""
        if "beyond" in entry:
            detail = f"(n={entry['n']}, {entry['beyond']} beyond)"
        elif "n" in entry:
            detail = f"(n={entry['n']})"
        print(f"   {name:<28} {entry['value']:>12.4f} {entry['unit']:<4} "
              f"{detail} {note}")
    ops = result["ops"]
    print(
        f"   {'error_ratio':<28} {ops['error_ratio']:>12.4f} ratio "
        f"({ops['failed']} of {ops['attempted']} failed)"
    )
    for name, entry in (result["layer_metrics"] or {}).items():
        print(f"   {name:<44} {entry['value']:>10.4f} {entry['unit']}")
    print(f"   {'weight_digest':<28} {result['weight_digest']}")
    for check in result["checks"]:
        print(f"   check {'ok  ' if check['ok'] else 'FAIL'} {check['name']} "
              f"({check['detail']})")
    if not env["comparable"]:
        print("   WARNING: fewer than 2 cores; not comparable")
    for reason in result["invalid_reasons"]:
        print(f"   WARNING: invalid measurement: {reason}")
    print(f"   wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="time each layer (first half untraced, second "
                             "half traced) and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for the result JSON files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the harness's own tests")
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not use_source_tree() or not bench_path.is_file():
        print("run.py: this checkout has no src/repro package or "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    args.out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.out))
    # Everything the program writes (stores, journals, artifacts) stays in
    # the output directory, child processes included.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    # A terminated run still stops its child processes on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for name in names:
            workdir = scratch / name
            workdir.mkdir()
            ctx = Context(seed=args.seed, seconds=seconds, trace=bool(args.trace),
                          scale=SMOKE if args.smoke else FULL, scratch=workdir)
            result = run_workload(name, ctx, bench)
            stamp = time.strftime("%Y%m%dT%H%M%S")
            path = args.out / (
                f"{name}-seed{args.seed}-{'traced' if args.trace else 'untraced'}"
                f"-{stamp}-{os.getpid()}.json"
            )
            path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
            describe(result, path)
            results.append(result)
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)

    key = "layer_metrics" if args.trace else "metrics"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, entry in result[key].items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["ops"]["attempted"] for result in results),
        "failed": sum(result["ops"]["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
