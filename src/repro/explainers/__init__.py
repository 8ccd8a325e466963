"""Generic perturbation-based explainer (the yellow blocks of Figure 2).

This package is deliberately EM-agnostic: it knows about *interpretable
features* (binary presence of tokens), perturbation masks, locality kernels
and linear surrogates — nothing about entity pairs.  Landmark Explanation
(:mod:`repro.core`) and the Mojito baselines (:mod:`repro.baselines`) plug
their own reconstruction logic into it, exactly as the paper's architecture
prescribes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AnchorExplanation": ".anchors",
    "AnchorsTextExplainer": ".anchors",
    "Explanation": ".base",
    "KernelShapExplainer": ".kernel_shap",
    "LimeConfig": ".lime_text",
    "LimeTextExplainer": ".lime_text",
    "anchor_for_landmark": ".anchors",
    "sample_masks": ".perturbation",
})
