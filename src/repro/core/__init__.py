"""Landmark Explanation — the paper's primary contribution.

The pipeline (Figure 2, bottom row):

1. :class:`~repro.core.generation.LandmarkGenerator` picks one entity of the
   record as the **landmark** (kept frozen) and prepares the token list of
   the **varying entity** — either its own tokens (*single-entity*
   generation) or its tokens plus the landmark's injected tokens
   (*double-entity* generation, for non-match records).
2. The generic perturbation explainer (:mod:`repro.explainers`) samples
   binary masks over those tokens.
3. :meth:`~repro.core.engine.PredictionEngine.predict_instance` rebuilds
   a full record pair from every mask as one columnar batch
   (:func:`~repro.core.columnar.landmark_batch`, *pair reconstruction*)
   and labels the batch with the black-box matcher (*dataset
   reconstruction*).
4. The surrogate coefficients come back as a
   :class:`~repro.core.explanation.LandmarkExplanation`; doing this once per
   landmark side yields the paper's dual
   :class:`~repro.core.explanation.DualExplanation`.

:class:`~repro.core.landmark.LandmarkExplainer` is the public entry point.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CancelToken": ".deadline",
    "ColumnarPairBatch": ".columnar",
    "Counterfactual": ".counterfactual",
    "Deadline": ".deadline",
    "DualExplanation": ".explanation",
    "EngineConfig": ".engine",
    "EngineStats": ".engine",
    "PredictionEngine": ".engine",
    "GENERATION_AUTO": ".landmark",
    "GENERATION_DOUBLE": ".generation",
    "GENERATION_SINGLE": ".generation",
    "GeneratedInstance": ".generation",
    "GlobalSummary": ".summarize",
    "GuardConfig": ".guard",
    "GuardStats": ".guard",
    "MatcherGuard": ".guard",
    "LandmarkExplainer": ".landmark",
    "LandmarkExplanation": ".explanation",
    "LandmarkGenerator": ".generation",
    "PairTokenWeights": ".explanation",
    "TokenEdit": ".counterfactual",
    "ValueColumn": ".columnar",
    "checkpoint": ".deadline",
    "landmark_batch": ".columnar",
    "dual_digest": ".serialize",
    "dual_from_dict": ".serialize",
    "dual_to_dict": ".serialize",
    "greedy_counterfactual": ".counterfactual",
    "load_explanation": ".serialize",
    "load_matcher": ".serialize",
    "matcher_fingerprint": ".serialize",
    "pair_digest": ".serialize",
    "request_scope": ".deadline",
    "save_explanation": ".serialize",
    "save_matcher": ".serialize",
    "save_html": ".report",
    "summarize_explanations": ".summarize",
    "to_html": ".report",
    "to_markdown": ".report",
})
