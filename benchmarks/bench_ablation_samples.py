"""Ablation: perturbation budget vs surrogate reliability and latency.

How many model calls does a trustworthy explanation need?  This sweeps the
LIME sample budget and measures token-removal accuracy of Landmark single
on match records — the knob every practitioner turns first, since the
budget is exactly the per-explanation model-call count (×2 landmarks).
Expected shape: accuracy roughly monotone in the budget, with diminishing
returns well before the paper-scale 512.
"""

from __future__ import annotations

from repro.core.generation import GENERATION_SINGLE
from repro.core.landmark import LandmarkExplainer
from repro.data.records import MATCH
from repro.evaluation.methods import ExplainedRecord
from repro.evaluation.tables import render_table
from repro.evaluation.token_eval import token_removal_eval
from repro.explainers.lime_text import LimeConfig

BUDGETS = (16, 48, 128)
N_RECORDS = 6


def _accuracy_at_budget(bundle, n_samples: int) -> float:
    explainer = LandmarkExplainer(
        bundle.matcher,
        lime_config=LimeConfig(n_samples=n_samples, seed=0),
        seed=0,
    )
    records = bundle.dataset.by_label(MATCH).pairs[:N_RECORDS]
    explained = []
    for pair in records:
        dual = explainer.explain(pair, GENERATION_SINGLE)
        explained.append(
            ExplainedRecord(
                method="single",
                pair=pair,
                token_weights=dual.combined(),
                attribute_importance=dual.attribute_importance(),
                removal_pairs=lambda sign, d=dual: [
                    side.apply_removal(sign) for side in d.sides()
                ],
            )
        )
    return token_removal_eval(explained, bundle.matcher, seed=0).accuracy


def test_bench_ablation_sample_budget(benchmark, bundles, output_dir):
    bundle = bundles["S-WA"]

    def sweep():
        return {budget: _accuracy_at_budget(bundle, budget) for budget in BUDGETS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = (
        "Ablation: perturbation budget vs token-removal accuracy "
        "(S-WA, match)\n"
        + render_table(
            ["Samples / explanation", "Accuracy"],
            [[budget, results[budget]] for budget in BUDGETS],
        )
    )
    (output_dir / "ablation_samples.txt").write_text(table + "\n", encoding="utf-8")
    print("\n" + table)

    # The generous budget must not lose to the starved one.
    assert results[BUDGETS[-1]] >= results[BUDGETS[0]] - 0.2
