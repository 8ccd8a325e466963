"""Surrogate-model substrate: weighted linear models, kernels, selection.

A perturbation-based explainer fits an interpretable *surrogate* — a
weighted linear model — on (binary perturbation mask, black-box probability)
pairs.  This package provides the pieces, all from scratch on numpy:

* :class:`~repro.surrogate.linear_model.WeightedRidge` — closed-form
  weighted ridge regression (LIME's default surrogate);
* :class:`~repro.surrogate.linear_model.WeightedLasso` — coordinate-descent
  lasso for sparse explanations;
* :mod:`~repro.surrogate.kernels` — the exponential locality kernel;
* :mod:`~repro.surrogate.feature_selection` — highest-weights and forward
  selection, LIME's two classic selection strategies.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "WeightedLasso": ".linear_model",
    "WeightedRidge": ".linear_model",
    "cosine_distance_to_ones": ".kernels",
    "exponential_kernel": ".kernels",
    "forward_selection": ".feature_selection",
    "highest_weights": ".feature_selection",
})
