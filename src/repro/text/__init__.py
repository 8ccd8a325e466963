"""Text substrate: normalization, prefixed tokenization and string similarity.

This package provides every piece of text machinery the rest of the library
relies on:

* :mod:`repro.text.normalize` — canonical lower-cased, punctuation-stripped
  representation of attribute values.
* :mod:`repro.text.tokenize` — the paper's *Tokenizer*: space-separated terms
  carrying an ``<attribute><position>_`` prefix so that perturbed token sets
  can always be reassembled into well-formed entities.
* :mod:`repro.text.similarity` — from-scratch string similarity measures
  (Levenshtein, Jaro, Jaro-Winkler, Jaccard, overlap, Monge-Elkan, ...).
* :mod:`repro.text.batch_similarity` — numpy batch kernels for
  the quadratic character measures, bit-identical to the scalar ones.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PrefixedToken": ".tokenize",
    "Tokenizer": ".tokenize",
    "char_similarities_batch": ".batch_similarity",
    "dice_coefficient": ".similarity",
    "exact_match": ".similarity",
    "format_prefixed_token": ".tokenize",
    "jaccard_similarity": ".similarity",
    "jaro_similarity": ".similarity",
    "jaro_winkler_similarity": ".similarity",
    "jaro_winkler_similarity_batch": ".batch_similarity",
    "levenshtein_distance": ".similarity",
    "levenshtein_distance_batch": ".batch_similarity",
    "levenshtein_similarity": ".similarity",
    "levenshtein_similarity_batch": ".batch_similarity",
    "monge_elkan_similarity": ".similarity",
    "normalize_value": ".normalize",
    "normalize_whitespace": ".normalize",
    "numeric_similarity": ".similarity",
    "overlap_coefficient": ".similarity",
    "parse_prefixed_token": ".tokenize",
})
