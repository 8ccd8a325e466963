"""EM matcher substrate: feature extraction, models, training, evaluation.

The paper's quantitative experiments explain a **Logistic Regression**
classifier trained on per-attribute similarity features (the classic
Magellan recipe).  This package provides:

* :class:`~repro.matchers.features.PairFeatureExtractor` — per-attribute
  similarity features with a feature → attribute group map (Table 3 needs
  the model's attribute-level weights);
* :class:`~repro.matchers.logistic.LogisticRegressionMatcher` — from-scratch
  L2-regularized logistic regression fit by IRLS;
* :class:`~repro.matchers.neural.MLPMatcher` — a small numpy MLP standing in
  for the "deep" matchers (DeepMatcher/DITTO) to demonstrate that Landmark
  Explanation is model-agnostic;
* :class:`~repro.matchers.embedding.EmbeddingMatcher` — a token-embedding
  matcher; its pooling matrix needs scipy, imported on first use only;
* :class:`~repro.matchers.boosting.GradientBoostedStumpsMatcher` —
  gradient-boosted decision stumps, a non-differentiable tree model;
* :class:`~repro.matchers.rules.RuleBasedMatcher` — an intrinsically
  interpretable threshold matcher;
* :class:`~repro.matchers.calibration.PlattCalibrator` — Platt scaling of
  a matcher's scores, beside :func:`tune_threshold`;
* :mod:`~repro.matchers.evaluate` — precision / recall / F1 and reports.
"""

from repro.matchers.base import EntityMatcher
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.calibration import PlattCalibrator, ThresholdChoice, tune_threshold
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.evaluate import MatchQuality, evaluate_matcher
from repro.matchers.features import FeatureConfig, PairFeatureExtractor
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import MatchRule, RuleBasedMatcher

__all__ = [
    "EmbeddingMatcher",
    "EntityMatcher",
    "FeatureConfig",
    "GradientBoostedStumpsMatcher",
    "LogisticRegressionMatcher",
    "MLPMatcher",
    "MatchQuality",
    "MatchRule",
    "PairFeatureExtractor",
    "PlattCalibrator",
    "RuleBasedMatcher",
    "ThresholdChoice",
    "evaluate_matcher",
    "tune_threshold",
]
