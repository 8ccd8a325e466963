"""Compare two sets of harness results against the bounds in BENCHMARK.json.

    python3 benchmarks/harness/compare.py PARENT CHANGE [--pairs]

PARENT and CHANGE are result directories (or result JSON files) written by
``run.py``.  Only untraced, valid results from machines with at least 2
cores count.  One row is printed per (end-to-end metric, workload):

* ``regression`` — the change's median is worse than the parent's by more
  than the metric's bound (exit status 1);
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
* ``better`` / ``within bound`` otherwise.

Report-only metrics (``DEMOTED`` in ``common.py``) get rows too, marked
``report-only``: they have no bound, so they never fail a comparison.

``--pairs`` judges a claimed gain instead, on every metric, report-only
ones included: it needs at least 10 parent and change runs made
alternately, and claims a gain on a metric only when the change wins at
least 9 in 10 pairs (ties count for neither side) and the medians differ
by more than the parent's quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import DEMOTED, ROOT, SCHEMA

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(source: Path) -> tuple[dict[str, list[dict]], int]:
    """Usable results by workload, oldest first, and how many were skipped."""
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    by_workload: dict[str, list[dict]] = {}
    skipped = 0
    for path in files:
        try:
            result = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            skipped += 1
            continue
        if (
            not isinstance(result, dict)
            or result.get("schema") != SCHEMA
            or result.get("trace")
            or not result.get("valid")
            or not result.get("environment", {}).get("comparable")
        ):
            skipped += 1
            continue
        result["_path"] = str(path)
        by_workload.setdefault(result["workload"], []).append(result)
    for runs in by_workload.values():
        runs.sort(key=lambda run: (run["started_at"], run["_path"]))
    return by_workload, skipped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def better(a: float, b: float, direction: str) -> bool:
    """Whether *a* reads strictly better than *b*."""
    return a < b if direction == "lower" else a > b


def worsening(parent: float, change: float, direction: str) -> float:
    """How much worse *change* is than *parent*, as a share of *parent*."""
    if not parent:
        return 0.0
    delta = (change - parent) / parent
    return delta if direction == "lower" else -delta


def values(runs: list[dict], metric: str) -> list[float]:
    return [
        (run["metrics"].get(metric) or run["report_only"][metric])["value"]
        for run in runs
    ]


def bounds_table(parent, change, metrics) -> int:
    print(f"{'metric':<28} {'workload':<8} {'parent (n)':>18} {'change (n)':>18} "
          f"{'worse by':>9} {'spread p/c':>13}  verdict")
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        for metric in metrics:
            name, direction, bound = metric["name"], metric["better"], metric["bound"]
            a = values(parent.get(workload, []), name)
            b = values(change.get(workload, []), name)
            if not a or not b:
                print(f"{name:<28} {workload:<8} missing runs on one side")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = worsening(med_a, med_b, direction)
            spread_a, spread_b = spread(a), spread(b)
            if bound is None:
                verdict = "report-only"
            elif spread_a > bound or spread_b > bound:
                all_better = all(better(y, x, direction) for y in b for x in a)
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            if bound is not None:
                verdict += f" (bound {bound:.0%})"
            print(
                f"{name:<28} {workload:<8} {med_a:>13.4f} ({len(a):>2}) "
                f"{med_b:>13.4f} ({len(b):>2}) {worse:>+8.1%} "
                f"{spread_a:>6.1%}/{spread_b:<6.1%}  {verdict}"
            )
    return 1 if regressions else 0


def alternated(parent_runs: list[dict], change_runs: list[dict]) -> bool:
    sides = [
        side
        for _, side in sorted(
            [(run["started_at"], "p") for run in parent_runs]
            + [(run["started_at"], "c") for run in change_runs]
        )
    ]
    return all(x != y for x, y in zip(sides, sides[1:]))


def pairs_table(parent, change, metrics) -> int:
    print(f"{'metric':<28} {'workload':<8} {'wins':>7} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30}  verdict")
    for workload in sorted(set(parent) & set(change)):
        runs_a, runs_b = parent[workload], change[workload]
        n = min(len(runs_a), len(runs_b))
        if n < MIN_PAIRS:
            print(f"{workload}: {n} pairs; at least {MIN_PAIRS} are needed")
            continue
        if not alternated(runs_a[:n], runs_b[:n]):
            print(f"{workload}: WARNING parent and change runs did not alternate")
        for metric in metrics:
            name, direction = metric["name"], metric["better"]
            a, b = values(runs_a[:n], name), values(runs_b[:n], name)
            wins = sum(better(y, x, direction) for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            gain = (
                wins >= WIN_SHARE * n
                and better(qb[1], qa[1], direction)
                and abs(qb[1] - qa[1]) > qa[2] - qa[0]
            )
            print(
                f"{name:<28} {workload:<8} {wins:>3}/{n:<3} "
                f"{qa[0]:>9.3f}/{qa[1]:>9.3f}/{qa[2]:>9.3f} "
                f"{qb[0]:>9.3f}/{qb[1]:>9.3f}/{qb[2]:>9.3f}  "
                f"{'gain' if gain else 'no gain'}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent results (dir or file)")
    parser.add_argument("change", type=Path, help="change results (dir or file)")
    parser.add_argument("--pairs", action="store_true",
                        help="judge a claimed gain over alternating pairs")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics += [
        {"name": name, "better": entry["better"], "bound": None}
        for name, entry in DEMOTED.items()
    ]
    parent, skipped_a = load(args.parent)
    change, skipped_b = load(args.change)
    if skipped_a or skipped_b:
        print(f"skipped {skipped_a} parent and {skipped_b} change files "
              f"(traced, invalid, non-comparable or not harness results)")
    table = pairs_table if args.pairs else bounds_table
    return table(parent, change, metrics)


if __name__ == "__main__":
    sys.exit(main())
