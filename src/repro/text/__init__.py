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
* :mod:`repro.text.vectorize` — a small TF-IDF vectorizer with cosine
  similarity, used by the feature extractor and by hard-negative mining in
  the synthetic data generator.
"""

from repro.text.batch_similarity import (
    char_similarities_batch,
    jaro_winkler_similarity_batch,
    levenshtein_distance_batch,
    levenshtein_similarity_batch,
)
from repro.text.normalize import normalize_value, normalize_whitespace
from repro.text.tokenize import (
    PrefixedToken,
    Tokenizer,
    format_prefixed_token,
    parse_prefixed_token,
)
from repro.text.similarity import (
    cosine_token_similarity,
    dice_coefficient,
    exact_match,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
    prefix_similarity,
)
from repro.text.vectorize import TfidfVectorizer

__all__ = [
    "PrefixedToken",
    "TfidfVectorizer",
    "Tokenizer",
    "char_similarities_batch",
    "cosine_token_similarity",
    "dice_coefficient",
    "exact_match",
    "format_prefixed_token",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaro_winkler_similarity_batch",
    "levenshtein_distance",
    "levenshtein_distance_batch",
    "levenshtein_similarity",
    "levenshtein_similarity_batch",
    "monge_elkan_similarity",
    "normalize_value",
    "normalize_whitespace",
    "numeric_similarity",
    "overlap_coefficient",
    "parse_prefixed_token",
    "prefix_similarity",
]
