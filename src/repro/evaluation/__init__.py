"""Evaluation harness: the experiments behind Tables 2, 3 and 4.

* :mod:`~repro.evaluation.methods` — a uniform adapter
  (:class:`~repro.evaluation.methods.ExplainedRecord`) over Landmark
  (single / double) and baseline (LIME drop / Mojito copy) explanations,
  so the three evaluations below run identically for every method.
* :mod:`~repro.evaluation.token_eval` — token-removal reliability
  (Table 2): accuracy and MAE of the surrogate against the EM model.
* :mod:`~repro.evaluation.attribute_eval` — weighted-Kendall agreement
  between the model's and the surrogate's attribute rankings (Table 3).
* :mod:`~repro.evaluation.interest_eval` — label-flip "interest" of the
  explanations (Table 4).
* :mod:`~repro.evaluation.runner` — trains a matcher per dataset, explains
  sampled records with every method and aggregates all three metrics,
  isolating per-record and per-cell failures instead of dying.
* :mod:`~repro.evaluation.ledger` — the structured failure ledger those
  isolated failures land in.
* :mod:`~repro.evaluation.persistence` — run JSON save/load/diff plus the
  checkpoint journal behind ``run(run_dir=..., resume=True)``.
* :mod:`~repro.evaluation.tables` — plain-text renderings in the paper's
  table layouts (with failure footnotes on degraded runs).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BenchmarkResult": ".runner",
    "CheckpointWriter": ".persistence",
    "ConfidenceInterval": ".stats",
    "bootstrap_ci": ".stats",
    "compare_results": ".persistence",
    "load_checkpoint": ".persistence",
    "load_result": ".persistence",
    "paired_bootstrap_pvalue": ".stats",
    "save_result": ".persistence",
    "DatasetResult": ".runner",
    "ExperimentRunner": ".runner",
    "ExplainedRecord": ".methods",
    "FailureEntry": ".ledger",
    "FailureLedger": ".ledger",
    "FaithfulnessResult": ".faithfulness",
    "MethodExplainers": ".methods",
    "ResumeState": ".persistence",
    "deletion_curve": ".faithfulness",
    "faithfulness_eval": ".faithfulness",
    "MethodMetrics": ".runner",
    "StabilityResult": ".stability",
    "TokenEvalResult": ".token_eval",
    "record_stability": ".stability",
    "stability_eval": ".stability",
    "attribute_correlation": ".attribute_eval",
    "attribute_eval": ".attribute_eval",
    "format_failures": ".tables",
    "format_table1": ".tables",
    "format_table2": ".tables",
    "format_table3": ".tables",
    "format_table4": ".tables",
    "interest_eval": ".interest_eval",
    "render_table": ".tables",
    "token_removal_eval": ".token_eval",
})

# These two functions share their names with the submodules that define
# them.  Importing such a submodule sets the package attribute to the
# module and ``__getattr__`` is never asked, so both are bound eagerly.
from repro.evaluation.attribute_eval import attribute_eval  # noqa: E402
from repro.evaluation.interest_eval import interest_eval  # noqa: E402
