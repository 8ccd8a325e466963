"""Ablation: how much landmark-token injection does double-entity need?

DESIGN.md calls out the injection ratio as a design choice.  The paper
always injects *all* landmark tokens; this ablation sweeps the fraction and
measures non-match interest — the metric injection exists to improve.
Expected shape: interest grows with the injection fraction.
"""

from __future__ import annotations

import numpy as np

from repro.core.explanation import DualExplanation
from repro.core.generation import GENERATION_DOUBLE
from repro.core.landmark import LandmarkExplainer
from repro.data.records import NON_MATCH
from repro.evaluation.interest_eval import interest_of_record
from repro.evaluation.methods import ExplainedRecord
from repro.evaluation.tables import render_table
from repro.explainers.lime_text import LimeConfig

FRACTIONS = (0.25, 0.5, 1.0)
N_RECORDS = 6
N_SAMPLES = 48


def _interest_at_fraction(bundle, fraction: float) -> float:
    explainer = LandmarkExplainer(
        bundle.matcher,
        lime_config=LimeConfig(n_samples=N_SAMPLES, seed=0),
        injection_fraction=fraction,
        seed=0,
    )
    records = bundle.dataset.by_label(NON_MATCH).pairs[:N_RECORDS]
    scores = []
    for pair in records:
        dual = explainer.explain(pair, GENERATION_DOUBLE)
        explained = ExplainedRecord(
            method="double",
            pair=pair,
            token_weights=dual.combined(),
            attribute_importance=dual.attribute_importance(),
            removal_pairs=lambda sign, d=dual: [
                side.apply_removal(sign) for side in d.sides()
            ],
        )
        scores.append(interest_of_record(explained, bundle.matcher))
    return float(np.mean(scores))


def test_bench_ablation_injection_fraction(benchmark, bundles, output_dir):
    bundle = bundles["S-AG"]

    def sweep():
        return {
            fraction: _interest_at_fraction(bundle, fraction)
            for fraction in FRACTIONS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = "Ablation: injection fraction vs non-match interest (S-AG)\n" + (
        render_table(
            ["Injection fraction", "Interest"],
            [[fraction, results[fraction]] for fraction in FRACTIONS],
        )
    )
    (output_dir / "ablation_injection.txt").write_text(table + "\n", encoding="utf-8")
    print("\n" + table)

    # Full injection (the paper's choice) must not be worse than the
    # smallest fraction.
    assert results[1.0] >= results[0.25]
