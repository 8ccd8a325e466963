"""Every explainer on the widest schema (S-IA, seven attributes).

The other suites explain S-BR records (four attributes).  These checks
run each method once on an S-IA non-match at 64 perturbations, so the
attribute-level Mojito Copy features, double-entity injection and the
cold-cache matcher batch are also covered on the widest schema.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mojito import MojitoCopyExplainer, MojitoDropExplainer
from repro.core.landmark import LandmarkExplainer
from repro.data.records import NON_MATCH
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher

LIME = LimeConfig(n_samples=64, seed=0)


@pytest.fixture(scope="module")
def matcher(music_dataset):
    return LogisticRegressionMatcher().fit(music_dataset)


@pytest.fixture(scope="module")
def record(music_dataset):
    pair = music_dataset.by_label(NON_MATCH)[0]
    assert len(pair.schema.attributes) == 7
    return pair


def test_single_entity_landmark_explanation_has_tokens(matcher, record):
    dual = LandmarkExplainer(matcher, lime_config=LIME).explain(record, "single")
    assert len(dual.combined()) > 0


def test_double_entity_generation_injects_landmark_tokens(matcher, record):
    dual = LandmarkExplainer(matcher, lime_config=LIME).explain(record, "double")
    assert dual.left_landmark.instance.n_injected > 0
    assert dual.right_landmark.instance.n_injected > 0


def test_mojito_drop_weighs_tokens(matcher, record):
    explanation = MojitoDropExplainer(matcher, LIME).explain(record)
    assert len(explanation.token_weights) > 0


def test_mojito_copy_features_are_the_schema_attributes(matcher, record):
    explanation = MojitoCopyExplainer(matcher, LIME).explain(record)
    assert explanation.explanation.feature_names == record.schema.attributes


def test_cold_cache_batch_matches_warm_cache(matcher, music_dataset):
    pairs = music_dataset.pairs[:200]
    matcher.extractor.clear_cache()
    cold = matcher.predict_proba(pairs)
    assert cold.shape == (200,)
    assert np.array_equal(cold, matcher.predict_proba(pairs))
