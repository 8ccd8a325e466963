"""Shared state for the benchmark suite.

The ablation benches sweep one knob of the explainer over a dataset and
its trained matcher; :func:`bundles` builds those once per pytest
session.  Every bench renders its table into ``benchmarks/output/``.

The paper's Tables 1-4 are not benches: ``repro-em datasets`` and
``repro-em experiment --preset bench`` print them, and
``tests/evaluation/test_paper_shapes.py`` asserts their shapes.

Scale: the ``BENCH`` preset's 500-pair datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.config import BENCH
from repro.data.records import EMDataset
from repro.data.synthetic.magellan import DATASET_CODES, load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher

OUTPUT_DIR = Path(__file__).parent / "output"


@dataclass
class DatasetBundle:
    """A benchmark dataset and the matcher trained on it."""

    code: str
    dataset: EMDataset
    matcher: LogisticRegressionMatcher


def _build_bundle(code: str) -> DatasetBundle:
    dataset = load_dataset(code, seed=BENCH.seed, size_cap=BENCH.size_cap)
    return DatasetBundle(
        code=code, dataset=dataset, matcher=LogisticRegressionMatcher().fit(dataset)
    )


@pytest.fixture(scope="session")
def bundles() -> dict[str, DatasetBundle]:
    """All twelve datasets with their trained matchers (BENCH scale)."""
    return {code: _build_bundle(code) for code in DATASET_CODES}


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
