"""Surrogate-model substrate: the weighted linear model and its kernel.

A perturbation-based explainer fits an interpretable *surrogate* — a
weighted linear model — on (binary perturbation mask, black-box probability)
pairs.  This package provides the pieces, from scratch on numpy:

* :class:`~repro.surrogate.linear_model.WeightedRidge` — closed-form
  weighted ridge regression, the one surrogate LIME and Kernel SHAP fit
  (over every token: the paper's evaluations need a weight for each);
* :mod:`~repro.surrogate.kernels` — the exponential locality kernel.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "WeightedRidge": ".linear_model",
    "cosine_distance_to_ones": ".kernels",
    "exponential_kernel": ".kernels",
})
