"""Tests for the explanation-stability evaluation."""

import pytest

from repro.baselines.mojito import MojitoDropExplainer
from repro.config import BENCH
from repro.core.explanation import PairTokenWeights, TokenEntry
from repro.core.landmark import LandmarkExplainer
from repro.data.records import MATCH
from repro.data.synthetic.magellan import load_dataset
from repro.evaluation.stability import (
    record_stability,
    stability_eval,
)
from repro.exceptions import ConfigurationError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher


def weights_for(pair, values):
    entries = []
    tokens = [
        ("left", "name", 0, "sony"),
        ("left", "name", 1, "camera"),
        ("right", "name", 0, "nikon"),
        ("right", "price", 0, "7.99"),
    ]
    for (side, attribute, position, word), value in zip(tokens, values):
        entries.append(TokenEntry(side, attribute, position, word, value))
    return PairTokenWeights(pair, entries)


class TestRecordStability:
    def test_identical_runs_are_perfectly_stable(self, toy_pair):
        runs = [weights_for(toy_pair, [0.5, 0.2, -0.3, 0.1])] * 3
        assert record_stability(runs) == pytest.approx(1.0)

    def test_reversed_rankings_are_anticorrelated(self, toy_pair):
        a = weights_for(toy_pair, [0.4, 0.3, 0.2, 0.1])
        b = weights_for(toy_pair, [0.1, 0.2, 0.3, 0.4])
        assert record_stability([a, b]) == pytest.approx(-1.0)

    def test_constant_weights_score_zero(self, toy_pair):
        a = weights_for(toy_pair, [0.2, 0.2, 0.2, 0.2])
        b = weights_for(toy_pair, [0.4, 0.3, 0.2, 0.1])
        assert record_stability([a, b]) == 0.0

    def test_needs_two_runs(self, toy_pair):
        with pytest.raises(ConfigurationError):
            record_stability([weights_for(toy_pair, [0.1, 0.2, 0.3, 0.4])])


class TestStabilityEval:
    def test_landmark_explanations_are_reasonably_stable(
        self, beer_matcher, beer_dataset
    ):
        def explain(pair, seed):
            explainer = LandmarkExplainer(
                beer_matcher,
                lime_config=LimeConfig(n_samples=96, seed=seed),
                seed=seed,
            )
            return explainer.explain(pair, "single").combined()

        pairs = beer_dataset.by_label(1).pairs[:3]
        result = stability_eval(pairs, explain, n_runs=3, base_seed=0)
        assert result.n_runs == 3
        assert len(result.per_record) == 3
        assert result.mean_correlation > 0.3

    def test_empty_input(self):
        result = stability_eval([], lambda pair, seed: None, n_runs=2)
        assert result.per_record == ()
        assert result.mean_correlation == 0.0

    def test_n_runs_validated(self, beer_dataset):
        with pytest.raises(ConfigurationError):
            stability_eval(beer_dataset.pairs[:1], lambda p, s: None, n_runs=1)

    def test_render(self, toy_pair):
        def explain(pair, seed):
            return weights_for(pair, [0.4, 0.3, 0.2, 0.1])

        result = stability_eval([toy_pair], explain, n_runs=2)
        assert "mean Spearman 1.000" in result.render()


class TestFodorsZagatStability:
    """Landmark Single against whole-pair LIME at an equal budget (S-FZ)."""

    N_SAMPLES = 64

    @pytest.fixture(scope="class")
    def results(self):
        dataset = load_dataset("S-FZ", seed=BENCH.seed, size_cap=BENCH.size_cap)
        matcher = LogisticRegressionMatcher().fit(dataset)
        pairs = dataset.by_label(MATCH).pairs[:4]

        def single(pair, seed):
            explainer = LandmarkExplainer(
                matcher,
                lime_config=LimeConfig(n_samples=self.N_SAMPLES, seed=seed),
                seed=seed,
            )
            return explainer.explain(pair, "single").combined()

        def lime(pair, seed):
            explainer = MojitoDropExplainer(
                matcher, LimeConfig(n_samples=self.N_SAMPLES, seed=seed), seed=seed
            )
            return explainer.explain(pair).token_weights

        return {
            "single": stability_eval(pairs, single, n_runs=3),
            "lime": stability_eval(pairs, lime, n_runs=3),
        }

    def test_single_is_stable(self, results):
        assert results["single"].mean_correlation > 0.2

    def test_single_is_not_much_less_stable_than_lime(self, results):
        # Same budget, fewer perturbable tokens per fit.
        assert (
            results["single"].mean_correlation
            > results["lime"].mean_correlation - 0.2
        )
