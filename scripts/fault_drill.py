#!/usr/bin/env python
"""End-to-end fault-injection drill (the CI smoke job).

Exercises the whole fault-tolerance stack against a real (synthetic)
dataset in under a minute:

1. a clean baseline run;
2. the same run with a 20 %-flaky matcher behind the guard — must
   complete, with retries absorbed and anything else ledgered;
3. a checkpointed run killed after cell 2, then resumed — must equal the
   baseline exactly (modulo wall time and engine counters).

Exit code 0 = all three hold.  Run locally with::

    PYTHONPATH=src python scripts/fault_drill.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

from repro.config import (
    METHOD_LIME,
    METHOD_SINGLE,
    EngineConfig,
    ExperimentConfig,
    GuardConfig,
)
from repro.evaluation.persistence import load_checkpoint, result_to_dict
from repro.evaluation.runner import ExperimentRunner
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.testing.faults import FlakyMatcher

CONFIG = ExperimentConfig(
    name="fault-drill",
    per_label=4,
    lime_samples=24,
    size_cap=150,
    methods=(METHOD_SINGLE, METHOD_LIME),
)
DATASETS = ["S-BR"]


def comparable(result) -> dict:
    payload = result_to_dict(result)
    for dataset in payload["datasets"].values():
        dataset.pop("engine_stats", None)
        for metrics in dataset["metrics"]:
            metrics.pop("seconds", None)
        dataset["metrics"].sort(key=lambda m: (m["label"], m["method"]))
    return payload


class _Killed(Exception):
    pass


def main() -> int:
    failures: list[str] = []

    print("[1/3] clean baseline run")
    baseline = ExperimentRunner(CONFIG).run(DATASETS)
    if not baseline.datasets["S-BR"].metrics:
        failures.append("baseline produced no metrics")

    print("[2/3] 20%-flaky matcher behind the guard")
    flaky_config = dataclasses.replace(
        CONFIG,
        engine=EngineConfig(guard=GuardConfig(max_retries=3, backoff=0.0)),
    )
    flaky = ExperimentRunner(
        flaky_config,
        matcher_factory=lambda: FlakyMatcher(
            LogisticRegressionMatcher(), fail_rate=0.2, seed=1
        ),
    ).run(DATASETS)
    stats = flaky.engine_totals()
    print(f"      {stats.summary()}")
    print(f"      {flaky.ledger().summary()}")
    if not flaky.datasets["S-BR"].metrics:
        failures.append("flaky run produced no metrics")
    if stats.guard_retries == 0:
        failures.append("guard absorbed no retries at 20% fault rate")

    print("[3/3] kill after cell 2, then resume")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        seen: list[tuple] = []

        def killer(code, label, method):
            seen.append((code, label, method))
            if len(seen) == 2:
                raise _Killed()

        try:
            ExperimentRunner(CONFIG, on_cell=killer).run(
                DATASETS, run_dir=str(run_dir)
            )
            failures.append("kill switch never fired")
        except _Killed:
            pass
        state = load_checkpoint(run_dir)
        print(f"      checkpoint holds {state.n_cells()} cells at kill time")
        resumed = ExperimentRunner(state.config).run(
            DATASETS, run_dir=str(run_dir), resume=True
        )
        if comparable(resumed) != comparable(baseline):
            failures.append("resumed run differs from uninterrupted baseline")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("fault drill passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
