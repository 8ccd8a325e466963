"""Landmark Explanation: explaining entity matching models with landmarks.

A from-scratch reproduction of *"Using Landmarks for Explaining Entity
Matching Models"* (Baraldi, Del Buono, Paganelli, Guerra — EDBT 2021).

Quickstart::

    from repro import (
        LandmarkExplainer, LogisticRegressionMatcher, load_dataset,
    )

    dataset = load_dataset("S-BR", size_cap=500)
    matcher = LogisticRegressionMatcher().fit(dataset)
    explainer = LandmarkExplainer(matcher)
    dual = explainer.explain(dataset[0])
    print(dual.render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ALL_METHODS": ".config",
    "AnchorExplanation": ".explainers.anchors",
    "AnchorsTextExplainer": ".explainers.anchors",
    "BENCH": ".config",
    "BlockingReport": ".blocking.index",
    "CheckpointError": ".exceptions",
    "Counterfactual": ".core.counterfactual",
    "FailureLedger": ".evaluation.ledger",
    "MatcherTimeoutError": ".exceptions",
    "MatcherUnavailableError": ".exceptions",
    "DATASET_CODES": ".data.synthetic.magellan",
    "DualExplanation": ".core.explanation",
    "EMDataset": ".data.records",
    "EmbeddingMatcher": ".matchers.embedding",
    "EntityMatcher": ".matchers.base",
    "GradientBoostedStumpsMatcher": ".matchers.boosting",
    "ExperimentConfig": ".config",
    "ExperimentRunner": ".evaluation.runner",
    "ExplainRequest": ".service.request",
    "ExplanationService": ".service.service",
    "ExplanationStore": ".service.store",
    "Explanation": ".explainers.base",
    "FAST": ".config",
    "GENERATION_AUTO": ".core.landmark",
    "GENERATION_DOUBLE": ".core.generation",
    "GENERATION_SINGLE": ".core.generation",
    "GlobalSummary": ".core.summarize",
    "InvertedIndexBlocker": ".blocking.index",
    "KernelShapExplainer": ".explainers.kernel_shap",
    "MatcherServer": ".backends.server",
    "RemoteBackend": ".backends.client",
    "EngineConfig": ".config",
    "EngineStats": ".core.engine",
    "PredictionEngine": ".core.engine",
    "LandmarkExplainer": ".core.landmark",
    "LandmarkExplanation": ".core.explanation",
    "LimeConfig": ".explainers.lime_text",
    "LimeTextExplainer": ".explainers.lime_text",
    "LogisticRegressionMatcher": ".matchers.logistic",
    "MLPMatcher": ".matchers.neural",
    "MojitoCopyExplainer": ".baselines.mojito",
    "MojitoDropExplainer": ".baselines.mojito",
    "PAPER": ".config",
    "PairSchema": ".data.schema",
    "PlattCalibrator": ".matchers.calibration",
    "PairTokenWeights": ".core.explanation",
    "RecordPair": ".data.records",
    "ReproError": ".exceptions",
    "RuleBasedMatcher": ".matchers.rules",
    "ServiceConfig": ".config",
    "StoreConfig": ".config",
    "Tokenizer": ".text.tokenize",
    "anchor_for_landmark": ".explainers.anchors",
    "evaluate_matcher": ".matchers.evaluate",
    "get_preset": ".config",
    "greedy_counterfactual": ".core.counterfactual",
    "load_benchmark": ".data.synthetic.magellan",
    "load_dataset": ".data.synthetic.magellan",
    "load_matcher": ".core.serialize",
    "make_dirty": ".data.synthetic.dirty",
    "matcher_fingerprint": ".core.serialize",
    "read_csv": ".data.io",
    "sample_per_label": ".data.splits",
    "save_matcher": ".core.serialize",
    "summarize_explanations": ".core.summarize",
    "train_test_split": ".data.splits",
    "tune_threshold": ".matchers.calibration",
    "write_csv": ".data.io",
})
__all__.append("__version__")
