"""Blocking: candidate generation for end-to-end entity matching.

The pair-structured datasets the paper evaluates on are the *output* of a
blocking stage: real EM pipelines never score the full cross product of
two tables.  This package provides that upstream substrate so the library
supports the whole workflow (block → match → explain):

* :class:`~repro.blocking.index.InvertedIndexBlocker` — token-based
  blocking over chosen attributes with a minimum-shared-tokens predicate;
* :class:`~repro.blocking.index.BlockingReport` — reduction ratio and
  pair-completeness against a gold matching.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BlockingReport": ".index",
    "InvertedIndexBlocker": ".index",
})
