"""Ablation: LIME kernel width vs surrogate reliability.

DESIGN.md calls out the locality kernel width as a design choice inherited
from LIME (default 25).  This ablation sweeps the width and measures the
token-removal MAE of Landmark single on match records.

Observed shape (recorded in EXPERIMENTS.md): *narrow* kernels fit the
neighbourhood of the record more tightly and therefore score better on the
25 %-removal protocol, which is itself local; the LIME default (25) trades
a little local MAE for stability of the global coefficient ranking.
"""

from __future__ import annotations

import numpy as np

from repro.core.generation import GENERATION_SINGLE
from repro.core.landmark import LandmarkExplainer
from repro.data.records import MATCH
from repro.evaluation.methods import ExplainedRecord
from repro.evaluation.tables import render_table
from repro.evaluation.token_eval import token_removal_eval
from repro.explainers.lime_text import LimeConfig

WIDTHS = (0.25, 1.0, 25.0)
N_RECORDS = 6
N_SAMPLES = 48


def _mae_at_width(bundle, width: float) -> float:
    explainer = LandmarkExplainer(
        bundle.matcher,
        lime_config=LimeConfig(n_samples=N_SAMPLES, kernel_width=width, seed=0),
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
    return token_removal_eval(explained, bundle.matcher, seed=0).mae


def test_bench_ablation_kernel_width(benchmark, bundles, output_dir):
    bundle = bundles["S-FZ"]

    def sweep():
        return {width: _mae_at_width(bundle, width) for width in WIDTHS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = "Ablation: kernel width vs token-removal MAE (S-FZ, match)\n" + (
        render_table(
            ["Kernel width", "MAE"],
            [[width, results[width]] for width in WIDTHS],
        )
    )
    (output_dir / "ablation_kernel.txt").write_text(table + "\n", encoding="utf-8")
    print("\n" + table)

    assert all(np.isfinite(v) for v in results.values())
    # Locality helps the (local) removal protocol: the narrow kernel must
    # not lose to the effectively-unweighted default by a wide margin.
    assert results[0.25] <= results[25.0] + 0.05
