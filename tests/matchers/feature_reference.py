"""Scalar reference for the per-attribute feature recipe (tests only).

A straight per-pair, per-attribute transcription of the Magellan recipe
built from the scalar measures in :mod:`repro.text.similarity`.  It shares
no code with :class:`repro.matchers.features.PairFeatureExtractor` beyond
those measures — it even keeps its own copy of the three-regex
normalization recipe — so parity with it is evidence that the extractor's
batched path computes the documented features.  It reads the extractor's
module constants at call time, so a test that patches them patches both.
"""

import re
import unicodedata

import numpy as np

from repro.matchers import features
from repro.text.similarity import (
    dice_coefficient,
    exact_match,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    numeric_similarity,
    overlap_coefficient,
)


#: The normalization recipe as first written: three regex passes.
PUNCT_TO_SPACE_RE = re.compile(r"[,;:!?\"'()\[\]{}<>|/\\&*+=~`^-]")
PUNCT_TO_DROP_RE = re.compile(r"[#%@]")
WHITESPACE_RE = re.compile(r"\s+")


def reference_normalize(value: object) -> str:
    """Canonical string form of an attribute value (regex recipe)."""
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:
            return ""
        if value == int(value) and abs(value) < 1e15:
            value = int(value)
    text = str(value)
    if not text or text.lower() in {"nan", "none", "null"}:
        return ""
    decomposed = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    text = text.lower()
    text = PUNCT_TO_DROP_RE.sub("", text)
    text = PUNCT_TO_SPACE_RE.sub(" ", text)
    return WHITESPACE_RE.sub(" ", text).strip()


def reference_attribute_features(left: str, right: str) -> np.ndarray:
    """Feature group of one attribute value pair."""
    left_norm = reference_normalize(left)
    right_norm = reference_normalize(right)
    if not left_norm and not right_norm:
        return np.zeros(7, dtype=np.float64)
    left_tokens = left_norm.split(" ") if left_norm else []
    right_tokens = right_norm.split(" ") if right_norm else []
    cap = features.CHAR_CAP
    left_capped = left_norm[:cap]
    right_capped = right_norm[:cap]
    values = [
        jaccard_similarity(left_tokens, right_tokens),
        overlap_coefficient(left_tokens, right_tokens),
        dice_coefficient(left_tokens, right_tokens),
        levenshtein_similarity(left_capped, right_capped),
        jaro_winkler_similarity(left_capped, right_capped),
        numeric_similarity(left_norm, right_norm),
        exact_match(left_norm, right_norm),
    ]
    group = np.array(values, dtype=np.float64)
    if not np.isfinite(group).all():
        group = np.nan_to_num(group, nan=0.0, posinf=1.0, neginf=0.0)
    return group


def reference_matrix(pairs) -> np.ndarray:
    """Feature matrix of *pairs*, one attribute group after another."""
    rows = [
        np.concatenate(
            [
                reference_attribute_features(
                    pair.left[attribute], pair.right[attribute]
                )
                for attribute in pair.schema.attributes
            ]
        )
        for pair in pairs
    ]
    return np.vstack(rows)
