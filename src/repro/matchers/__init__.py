"""EM matcher substrate: feature extraction, models, training, evaluation.

The paper's quantitative experiments explain a **Logistic Regression**
classifier trained on per-attribute similarity features (the classic
Magellan recipe).  This package provides:

* :class:`~repro.matchers.features.PairFeatureExtractor` — per-attribute
  similarity features with a feature → attribute group map (Table 3 needs
  the model's attribute-level weights);
* :class:`~repro.matchers.base.FeatureMatcher` — the skeleton of the
  models over those features: the label checks, the extractor, the
  fitted check and the pair-list ``predict_proba``;
* :class:`~repro.matchers.logistic.LogisticRegressionMatcher` — from-scratch
  L2-regularized logistic regression fit by IRLS;
* :class:`~repro.matchers.neural.MLPMatcher` — a small numpy MLP standing in
  for the "deep" matchers (DeepMatcher/DITTO) to demonstrate that Landmark
  Explanation is model-agnostic;
* :class:`~repro.matchers.embedding.EmbeddingMatcher` — a token-embedding
  matcher; its pooling matrix needs scipy, which its first prediction
  imports, so a process that serves it loads scipy (about 0.1 s);
* :class:`~repro.matchers.boosting.GradientBoostedStumpsMatcher` —
  gradient-boosted decision stumps, a non-differentiable tree model;
* :class:`~repro.matchers.rules.RuleBasedMatcher` — an intrinsically
  interpretable threshold matcher;
* :class:`~repro.matchers.calibration.PlattCalibrator` — Platt scaling of
  a matcher's scores, beside :func:`tune_threshold`;
* :mod:`~repro.matchers.evaluate` — precision / recall / F1 and reports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "EmbeddingMatcher": ".embedding",
    "EntityMatcher": ".base",
    "FeatureMatcher": ".base",
    "GradientBoostedStumpsMatcher": ".boosting",
    "LogisticRegressionMatcher": ".logistic",
    "MLPMatcher": ".neural",
    "MatchQuality": ".evaluate",
    "MatchRule": ".rules",
    "PairFeatureExtractor": ".features",
    "PlattCalibrator": ".calibration",
    "RuleBasedMatcher": ".rules",
    "ThresholdChoice": ".calibration",
    "evaluate_matcher": ".evaluate",
    "tune_threshold": ".calibration",
})
