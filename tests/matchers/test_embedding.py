"""Tests for the token-embedding matcher."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import save_matcher
from repro.data.splits import train_test_split
from repro.exceptions import DatasetError, ModelNotFittedError
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.evaluate import evaluate_matcher


@pytest.fixture(scope="module")
def embedding_matcher(beer_dataset):
    return EmbeddingMatcher(epochs=100, seed=0).fit(beer_dataset)


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            EmbeddingMatcher(embedding_dim=0)
        with pytest.raises(ValueError):
            EmbeddingMatcher(hidden_size=0)

    def test_predict_before_fit(self):
        with pytest.raises(ModelNotFittedError):
            EmbeddingMatcher().predict_proba([])
        with pytest.raises(ModelNotFittedError):
            EmbeddingMatcher().vocabulary_size

    def test_single_class_rejected(self, beer_dataset):
        with pytest.raises(DatasetError):
            EmbeddingMatcher().fit(beer_dataset.by_label(1))


class TestLearning:
    def test_fits_training_data(self, beer_dataset, embedding_matcher):
        quality = evaluate_matcher(embedding_matcher, beer_dataset)
        assert quality.f1 > 0.9

    def test_generalizes_to_held_out_pairs(self, beer_dataset):
        train, test = train_test_split(beer_dataset, test_fraction=0.3, seed=0)
        matcher = EmbeddingMatcher(epochs=100, seed=0).fit(train)
        quality = evaluate_matcher(matcher, test)
        assert quality.f1 > 0.5

    def test_loss_decreases(self, embedding_matcher):
        history = embedding_matcher.loss_history_
        assert history[-1] < history[0] * 0.5

    def test_vocabulary_includes_oov_bucket(self, embedding_matcher):
        assert embedding_matcher.vocabulary_["<oov>"] == 0
        assert embedding_matcher.vocabulary_size > 10

    def test_probabilities_bounded(self, beer_dataset, embedding_matcher):
        probabilities = embedding_matcher.predict_proba(beer_dataset.pairs[:40])
        assert probabilities.min() >= 0.0
        assert probabilities.max() <= 1.0

    def test_deterministic(self, beer_dataset):
        a = EmbeddingMatcher(epochs=20, seed=4).fit(beer_dataset)
        b = EmbeddingMatcher(epochs=20, seed=4).fit(beer_dataset)
        probs_a = a.predict_proba(beer_dataset.pairs[:10])
        probs_b = b.predict_proba(beer_dataset.pairs[:10])
        assert np.allclose(probs_a, probs_b)

    def test_unseen_tokens_fall_back_to_oov(self, beer_dataset, embedding_matcher):
        pair = beer_dataset[0].with_right(
            {
                "beer_name": "zzzz qqqq totally unseen words",
                "brew_factory_name": "xylophone",
                "style": "mystery",
                "abv": "1.0",
            }
        )
        probability = embedding_matcher.predict_one(pair)
        assert 0.0 <= probability <= 1.0

    def test_empty_attribute_gives_zero_summary(self, beer_dataset, embedding_matcher):
        pair = beer_dataset[0].with_right(
            {"beer_name": "", "brew_factory_name": "", "style": "", "abv": ""}
        )
        probability = embedding_matcher.predict_one(pair)
        assert 0.0 <= probability <= 1.0


class TestTokenSensitivity:
    def test_responds_to_single_token_removal(
        self, beer_dataset, embedding_matcher
    ):
        # Unlike pure similarity features, the embedding model must react
        # to removing an identity token from one side of a match.
        match = next(pair for pair in beer_dataset if pair.is_match)
        original = embedding_matcher.predict_one(match)
        gutted = match.with_right(
            {**dict(match.right), "beer_name": ""}
        )
        changed = embedding_matcher.predict_one(gutted)
        assert abs(original - changed) > 0.01

    def test_explains_through_landmark_pipeline(
        self, beer_dataset, embedding_matcher
    ):
        from repro.core.landmark import LandmarkExplainer
        from repro.explainers.lime_text import LimeConfig

        explainer = LandmarkExplainer(
            embedding_matcher, lime_config=LimeConfig(n_samples=32, seed=0)
        )
        dual = explainer.explain(beer_dataset[0])
        assert len(dual.combined()) > 0


class TestTokenSaliency:
    def test_covers_every_token(self, beer_dataset, embedding_matcher):
        from repro.text.normalize import tokens_of

        pair = beer_dataset[0]
        saliency = embedding_matcher.token_saliency(pair)
        expected = sum(
            len(tokens_of(value))
            for entity in (pair.left, pair.right)
            for value in entity.values()
        )
        assert len(saliency) == expected
        assert all(np.isfinite(v) for v in saliency.values())

    def test_requires_fit(self):
        from repro.matchers.embedding import EmbeddingMatcher

        with pytest.raises(ModelNotFittedError):
            EmbeddingMatcher().token_saliency(None)

    def test_agrees_with_occlusion_on_average(
        self, beer_dataset, embedding_matcher
    ):
        from scipy.stats import spearmanr

        from repro.core.columnar import removal_batch

        rhos = []
        for pair in beer_dataset.pairs[:5]:
            saliency = embedding_matcher.token_saliency(pair)
            if len(saliency) < 3:
                continue
            p0 = embedding_matcher.predict_one(pair)
            keys = list(saliency)
            occluded = removal_batch(pair, [[key] for key in keys]).pairs()
            occlusion = {
                key: p0 - embedding_matcher.predict_one(variant)
                for key, variant in zip(keys, occluded)
            }
            if np.ptp([occlusion[k] for k in keys]) == 0.0:
                continue
            rhos.append(
                spearmanr(
                    [saliency[k] for k in keys], [occlusion[k] for k in keys]
                ).statistic
            )
        assert rhos
        assert float(np.mean(rhos)) > 0.1


SRC = Path(__file__).resolve().parents[2] / "src"

PREDICT_IN_FRESH_PROCESS = """
import sys

import numpy as np

from repro.core.serialize import load_matcher
from repro.data.synthetic import load_dataset

artifact, output = sys.argv[1:]
dataset = load_dataset("S-BR", seed=0, size_cap=300)
np.save(output, load_matcher(artifact).predict_proba(dataset.pairs))
"""


class TestArtifact:
    def test_fresh_process_predicts_identically(
        self, beer_dataset, embedding_matcher, tmp_path
    ):
        # The serving path imports scipy on first use, not at import
        # time; a freshly started process must still reproduce every
        # probability bit for bit.
        artifact = tmp_path / "embedding.pkl"
        output = tmp_path / "probabilities.npy"
        save_matcher(embedding_matcher, artifact)
        result = subprocess.run(
            [
                sys.executable, "-c", PREDICT_IN_FRESH_PROCESS,
                str(artifact), str(output),
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        expected = embedding_matcher.predict_proba(beer_dataset.pairs)
        assert np.array_equal(np.load(output), expected)
