"""Competitor explainers the paper evaluates against.

* **LIME / Mojito Drop** (:class:`~repro.baselines.mojito.MojitoDropExplainer`)
  — classic LIME applied to the whole EM record: every token of *both*
  entities is perturbable at once.  The paper's "LIME" columns.
* **Mojito Copy** (:class:`~repro.baselines.mojito.MojitoCopyExplainer`) —
  Mojito's attribute-level copy perturbation: a perturbation replaces an
  attribute value of one entity with the corresponding value of the other,
  pushing non-match records toward the matching class.  Its interpretable
  features are whole attributes, whose weight is distributed equally over
  the attribute's tokens.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "MojitoAttributeDropExplainer": ".mojito",
    "MojitoCopyExplainer": ".mojito",
    "MojitoDropExplainer": ".mojito",
    "PairExplanation": ".mojito",
})
