"""Tests of the benchmark harness itself (outside the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/harness

Every workload runs at ``--smoke`` size for one second, twice with the
same seed, and once traced.  About two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]

sys.path.insert(0, str(HARNESS))
import compare  # noqa: E402
from common import DEMOTED, SCHEMA  # noqa: E402


def run(out: Path, workload: str, trace: int = 0, seed: int = 0):
    """(last stdout line, result JSON) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--smoke",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    (path,) = out.glob(f"{workload}-*.json")
    return line, json.loads(path.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Untraced smoke runs, cached by (workload, attempt)."""
    cache: dict = {}

    def get(workload: str, attempt: int = 0):
        if (workload, attempt) not in cache:
            out = tmp_path_factory.mktemp(f"{workload}-{attempt}")
            cache[workload, attempt] = run(out, workload)
        return cache[workload, attempt]

    return get


def units(declared: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_matches_benchmark_declaration(smoke, workload):
    line, result = smoke(workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    reported = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert reported == units(BENCH["end_to_end"])
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert result["schema"] == SCHEMA and result["workload"] == workload
    for key in ("commit", "environment", "seed", "parameters", "metrics",
                "layers", "ops", "checks", "weight_digest", "valid"):
        assert key in result
    assert result["environment"]["nproc"] >= 1
    assert result["environment"]["python"]
    assert result["ops"]["attempted"] == line["attempted"]
    assert all(check["ok"] for check in result["checks"])
    for name in DEMOTED:
        assert result["report_only"][name]["spread"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(smoke, workload):
    first = smoke(workload, 0)[1]["weight_digest"]
    assert first == smoke(workload, 1)[1]["weight_digest"]


def test_serve_and_fleet_serve_the_in_process_hot_payloads(smoke):
    assert smoke("serve")[1]["weight_digest"] == smoke("fleet")[1]["weight_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    line, result = run(tmp_path, workload, trace=1)
    reported = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert reported == units(BENCH["per_layer"])
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["layers"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HARNESS, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", "explain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def fake_result(workload: str, started: str, **metrics) -> dict:
    return {
        "schema": SCHEMA, "workload": workload, "trace": False, "valid": True,
        "environment": {"comparable": True}, "started_at": started,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def write_runs(directory: Path, side: str, values: list[float]) -> None:
    directory.mkdir()
    for index, value in enumerate(values):
        # Parent runs at even seconds, change runs at odd: they alternate.
        second = 2 * index + (side == "change")
        result = fake_result("explain", f"2026-01-01T00:00:{second:02d}",
                             p50_ms=value)
        (directory / f"run-{index}.json").write_text(json.dumps(result))


P50_ONLY = [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    write_runs(tmp_path / "parent", "parent", [10.0, 10.1, 9.9, 10.0])
    write_runs(tmp_path / "change", "change", [12.0, 12.1, 11.9, 12.0])
    parent, _ = compare.load(tmp_path / "parent")
    change, _ = compare.load(tmp_path / "change")
    assert compare.bounds_table(parent, change, P50_ONLY) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.bounds_table(parent, parent, P50_ONLY) == 0
    capsys.readouterr()
    report_only = [{"name": "p50_ms", "better": "lower", "bound": None}]
    assert compare.bounds_table(parent, change, report_only) == 0
    assert "report-only" in capsys.readouterr().out


def test_compare_marks_wide_spread_unresolved(tmp_path, capsys):
    write_runs(tmp_path / "parent", "parent", [8.0, 12.0, 9.0, 11.0])
    write_runs(tmp_path / "change", "change", [8.5, 12.5, 9.5, 11.5])
    parent, _ = compare.load(tmp_path / "parent")
    change, _ = compare.load(tmp_path / "change")
    assert compare.bounds_table(parent, change, P50_ONLY) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_pairs_claims_a_gain_only_with_nine_in_ten_wins(tmp_path, capsys):
    parent_values = [10.0 + 0.1 * (k % 3) for k in range(10)]
    write_runs(tmp_path / "parent", "parent", parent_values)
    write_runs(tmp_path / "change", "change", [v - 1.0 for v in parent_values])
    write_runs(tmp_path / "mixed", "change",
               [v - 1.0 if k < 8 else v + 1.0 for k, v in enumerate(parent_values)])
    parent, _ = compare.load(tmp_path / "parent")
    compare.pairs_table(parent, compare.load(tmp_path / "change")[0], P50_ONLY)
    assert capsys.readouterr().out.splitlines()[-1].endswith(" gain")
    compare.pairs_table(parent, compare.load(tmp_path / "mixed")[0], P50_ONLY)
    assert capsys.readouterr().out.splitlines()[-1].endswith("no gain")
