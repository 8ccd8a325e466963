"""Absolute explanation weights are pinned by ``tests/golden/weights.json``.

Parity tests compare two paths in one process, so a change that moves
every path the same way passes them.  This test pins the weights
themselves: one digest per cell of a fixed grid.

- Datasets: S-BR (the sampler enumerates), S-WA (random draws) and S-IA
  (the widest schema), each ``load_dataset(code, seed=0, size_cap=500)``
  with a :class:`LogisticRegressionMatcher`.
- Records: the first 2 records per label of each dataset.
- Landmark cells: Single and Double, each with LIME and Kernel SHAP,
  digested with :func:`repro.core.serialize.dual_digest`.
- Mojito Drop and Copy cells: a sha256 of the canonical JSON of the
  surrogate's fields, written as :func:`repro.core.serialize.dual_to_dict`
  writes them for a landmark side.
- 64 samples, seed 0.

The remote half re-derives a slice of the grid through a
:class:`~repro.backends.client.RemoteBackend` against an in-process
:class:`~repro.backends.server.MatcherServer`: S-WA, the first record of
each label, Single and Double LIME.  Those 4 cells must equal the file
when explained through a :class:`LandmarkExplainer` and through an
:class:`~repro.service.service.ExplanationService`.

Regenerate the golden (only for a deliberate change of the weights, and
say why in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_weights.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.backends.client import RemoteBackend
from repro.backends.server import MatcherServer
from repro.baselines.mojito import MojitoCopyExplainer, MojitoDropExplainer
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import _canonical_json, _explanation_to_dict, dual_digest
from repro.data.records import MATCH, NON_MATCH
from repro.data.synthetic.magellan import load_dataset
from repro.explainers.kernel_shap import KernelShapExplainer
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService

GOLDEN = Path(__file__).parent / "golden" / "weights.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden_weights.py"

DATASETS = ("S-BR", "S-WA", "S-IA")
RECORDS_PER_LABEL = 2
N_SAMPLES = 64
SEED = 0
GENERATIONS = ("single", "double")
REMOTE_DATASET = "S-WA"


def _explanation_digest(explanation) -> str:
    blob = _canonical_json(_explanation_to_dict(explanation)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _records(dataset):
    chosen = []
    for label in (MATCH, NON_MATCH):
        chosen += [pair for pair in dataset if pair.label == label][:RECORDS_PER_LABEL]
    return chosen


def golden_cells() -> dict[str, str]:
    """``{"<dataset>/<pair id>/<method>": digest}`` for the whole grid."""
    cells = {}
    for code in DATASETS:
        dataset = load_dataset(code, seed=SEED, size_cap=500)
        matcher = LogisticRegressionMatcher().fit(dataset)
        landmark = {
            "lime": LandmarkExplainer(
                matcher, lime_config=LimeConfig(n_samples=N_SAMPLES), seed=SEED
            ),
            "shap": LandmarkExplainer(
                matcher, explainer=KernelShapExplainer(n_samples=N_SAMPLES), seed=SEED
            ),
        }
        mojito = {
            "mojito_drop": MojitoDropExplainer(
                matcher, LimeConfig(n_samples=N_SAMPLES), seed=SEED
            ),
            "mojito_copy": MojitoCopyExplainer(
                matcher, LimeConfig(n_samples=N_SAMPLES), seed=SEED
            ),
        }
        for pair in _records(dataset):
            prefix = f"{code}/{pair.pair_id}"
            for generation in GENERATIONS:
                for name, explainer in landmark.items():
                    dual = explainer.explain(pair, generation)
                    cells[f"{prefix}/{generation}-{name}"] = dual_digest(dual)
            for name, explainer in mojito.items():
                cells[f"{prefix}/{name}"] = _explanation_digest(
                    explainer.explain(pair).explanation
                )
    return cells


def _render(cells: dict[str, str]) -> str:
    golden = {"numpy": np.__version__, "cells": cells}
    return json.dumps(golden, indent=2, sort_keys=True) + "\n"


def test_weights_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    was, now = golden["cells"], golden_cells()
    moved = sorted(
        cell for cell in set(was) | set(now) if was.get(cell) != now.get(cell)
    )
    assert not moved, (
        f"{len(moved)} of {len(was)} golden weight cells moved "
        f"(golden numpy {golden['numpy']}, running {np.__version__}):\n"
        + "\n".join(moved)
        + f"\nif the change is deliberate, regenerate with: {REGENERATE}"
    )


def test_remote_weights_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]
    dataset = load_dataset(REMOTE_DATASET, seed=SEED, size_cap=500)
    matcher = LogisticRegressionMatcher().fit(dataset)
    pairs = [next(pair for pair in dataset if pair.label == label)
             for label in (MATCH, NON_MATCH)]
    cells = [(pair, generation, f"{REMOTE_DATASET}/{pair.pair_id}/{generation}-lime")
             for pair in pairs for generation in GENERATIONS]
    expected = {cell: golden[cell] for _, _, cell in cells}
    with MatcherServer(matcher) as server:
        backend = RemoteBackend(server.address)
        try:
            explainer = LandmarkExplainer(
                backend, lime_config=LimeConfig(n_samples=N_SAMPLES), seed=SEED
            )
            direct = {cell: dual_digest(explainer.explain(pair, generation))
                      for pair, generation, cell in cells}
        finally:
            backend.close()
        with ExplanationService(RemoteBackend(server.address)) as service:
            served = {
                pair.pair_id: service.explain(ExplainRequest(
                    pair=pair, method="both", samples=N_SAMPLES, seed=SEED
                ))["digests"]
                for pair in pairs
            }
    assert direct == expected
    assert {cell: served[pair.pair_id][generation]
            for pair, generation, cell in cells} == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_render(golden_cells()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
