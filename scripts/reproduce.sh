#!/usr/bin/env bash
# Reproduce everything: tests, the paper's tables, the ablation benches,
# the fast experiment grid and all runnable examples.  Outputs land in the repository root and in
# benchmarks/output/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/4 unit + property tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt | tail -2

echo "== 2/4 paper Tables 1-4 (bench scale), then the ablation benches =="
python -m repro.cli datasets --materialize --size-cap 500
python -m repro.cli experiment --preset bench
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt | tail -2

echo "== 3/4 full experiment grid (fast preset, all 12 datasets) =="
python -m repro.cli experiment --preset fast --output experiments_fast.txt | tail -5

echo "== 4/4 examples =="
for script in examples/*.py; do
    echo "-- ${script}"
    python "${script}" > /dev/null
done

echo "done. See benchmarks/output/, experiments_fast.txt, EXPERIMENTS.md."
