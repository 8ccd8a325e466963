"""Extension bench: black-box explanations vs the model's true internals.

The paper validates explanations against a Logistic Regression's
*attribute-level* weights (Table 3) because LR has no token-level ground
truth.  The token-embedding matcher does: for every token we can compute

* the exact **occlusion effect** (probability drop when only that token is
  removed — the model's true marginal token importance for removal
  semantics), and
* the closed-form **gradient saliency**
  (:meth:`EmbeddingMatcher.token_saliency`).

This bench measures the Spearman agreement of Landmark-LIME token weights
with both ground truths, per record.  High agreement with occlusion is the
token-level analogue of the paper's Table 3 result.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import spearmanr

from repro.core.columnar import removal_batch
from repro.core.landmark import LandmarkExplainer
from repro.data.splits import sample_per_label
from repro.data.synthetic.magellan import load_dataset
from repro.evaluation.tables import render_table
from repro.explainers.lime_text import LimeConfig
from repro.matchers.embedding import EmbeddingMatcher

N_RECORDS_PER_LABEL = 4
N_SAMPLES = 128


def _agreements(matcher, explainer, pairs):
    lime_rhos, saliency_rhos = [], []
    for pair in pairs:
        original_probability = matcher.predict_one(pair)
        dual = explainer.explain(pair, "single")
        lime_weights = {
            entry.key: entry.weight for entry in dual.combined().entries
        }
        if len(lime_weights) < 3:
            continue
        keys = list(lime_weights)
        occluded = removal_batch(pair, [[key] for key in keys]).pairs()
        occlusion = dict(
            zip(keys, original_probability - matcher.predict_proba(occluded))
        )
        saliency = matcher.token_saliency(pair)
        occlusion_values = [occlusion[key] for key in keys]
        if np.ptp(occlusion_values) == 0.0:
            continue
        lime_rhos.append(
            spearmanr(occlusion_values, [lime_weights[k] for k in keys]).statistic
        )
        saliency_rhos.append(
            spearmanr(occlusion_values, [saliency[k] for k in keys]).statistic
        )
    return lime_rhos, saliency_rhos


def test_bench_whitebox_agreement(benchmark, output_dir):
    dataset = load_dataset("S-BR", seed=0, size_cap=400)
    matcher = EmbeddingMatcher(epochs=100, seed=0).fit(dataset)
    explainer = LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=N_SAMPLES, seed=0), seed=0
    )
    sample = sample_per_label(dataset, N_RECORDS_PER_LABEL, seed=0)

    lime_rhos, saliency_rhos = benchmark.pedantic(
        lambda: _agreements(matcher, explainer, sample.pairs),
        rounds=1,
        iterations=1,
    )
    table = (
        "Extension: token-level agreement with the embedding model's "
        "internals (S-BR)\n"
        + render_table(
            ["Explanation", "Mean Spearman vs occlusion", "Records"],
            [
                ["landmark-LIME weights", float(np.mean(lime_rhos)), len(lime_rhos)],
                ["gradient saliency", float(np.mean(saliency_rhos)), len(saliency_rhos)],
            ],
        )
    )
    (output_dir / "whitebox_agreement.txt").write_text(table + "\n", encoding="utf-8")
    print("\n" + table)

    # Landmark-LIME tracks the model's true marginal token effects well —
    # the token-level analogue of Table 3.
    assert float(np.mean(lime_rhos)) > 0.45
    # The first-order gradient is a weaker (local) signal but still
    # positively aligned.
    assert float(np.mean(saliency_rhos)) > 0.15
