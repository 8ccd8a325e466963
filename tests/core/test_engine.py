"""Tests for the batched prediction engine.

The engine's contract has two halves, and both are tested here:

* **equivalence** — dedup, caching and chunking never change a single
  output bit relative to calling the matcher directly;
* **accounting** — the observability counters obey
  ``calls_issued + calls_saved == requested`` and
  ``calls_saved == dedup_saved + cache_hits``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, EngineStats, PredictionEngine
from repro.core.generation import GENERATION_DOUBLE, GENERATION_SINGLE
from repro.config import ALL_METHODS, METHOD_MOJITO_COPY
from repro.core.landmark import LandmarkExplainer
from repro.data.records import MATCH, NON_MATCH, RecordPair
from repro.evaluation.interest_eval import interest_eval
from repro.evaluation.methods import MethodExplainers
from repro.evaluation.token_eval import token_removal_eval
from repro.exceptions import ConfigurationError
from repro.explainers.lime_text import LimeConfig
from repro.matchers.base import EntityMatcher
from repro.obs.export import families_to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.testing.faults import MatcherFault
from tests.core.mask_reference import TransparentEngine


class CountingMatcher:
    """Wraps a fitted matcher and counts the rows it is asked to score."""

    def __init__(self, matcher):
        self.matcher = matcher
        self.rows_scored = 0
        self.calls = 0

    def fit(self, dataset):
        return self.matcher.fit(dataset)

    def predict_proba(self, pairs):
        self.rows_scored += len(pairs)
        self.calls += 1
        return self.matcher.predict_proba(pairs)

    def predict_one(self, pair):
        return float(self.predict_proba([pair])[0])


class FailingMatcher(CountingMatcher):
    """Raises on its *failing_call*-th call (1-based); scores otherwise."""

    def __init__(self, matcher, failing_call):
        super().__init__(matcher)
        self.failing_call = failing_call

    def predict_proba(self, pairs):
        if self.calls + 1 == self.failing_call:
            self.calls += 1
            raise MatcherFault(f"injected fault on call #{self.calls}")
        return super().predict_proba(pairs)


class HalfMatcher:
    """Scores every pair 0.5 (schema-agnostic)."""

    def predict_proba(self, pairs):
        return np.full(len(pairs), 0.5)


class ColumnarOnlyMatcher(EntityMatcher):
    """A matcher whose only kernel is ``predict_proba_columnar``."""

    def __init__(self, matcher):
        self.matcher = matcher
        self.batches = []

    def fit(self, dataset):
        raise AssertionError("never trained")

    def predict_proba(self, pairs):
        raise AssertionError("every scoring call must be columnar")

    def predict_proba_columnar(self, batch):
        self.batches.append(batch.n_rows)
        return self.matcher.predict_proba_columnar(batch)


@pytest.fixture()
def counting_matcher(beer_matcher):
    return CountingMatcher(beer_matcher)


def explain_weights(matcher, pair, engine, generation=GENERATION_SINGLE):
    """Both sides' surrogate weights with every model call through
    *engine* (a :class:`TransparentEngine` for the reference)."""
    explainer = LandmarkExplainer(
        matcher, lime_config=LimeConfig(n_samples=48, seed=0), seed=0,
        engine=engine,
    )
    dual = explainer.explain(pair, generation)
    return (
        dual.left_landmark.explanation.weights,
        dual.right_landmark.explanation.weights,
    )


def distinct_pairs(dataset, n):
    """The first *n* pairs of *dataset* with pairwise different content."""
    distinct = {
        (tuple(pair.left.values()), tuple(pair.right.values())): pair
        for pair in dataset
    }
    pairs = list(distinct.values())[:n]
    assert len(pairs) == n
    return pairs


class TestFingerprint:
    """The engine keys a row by its content: attributes and values."""

    def test_equal_content_equal_fingerprint(self, toy_pair):
        from dataclasses import replace

        clone = replace(toy_pair, pair_id=123, label=1 - toy_pair.label)
        matcher = CountingMatcher(HalfMatcher())
        engine = PredictionEngine(matcher)
        engine.predict_pairs([toy_pair, clone])
        assert matcher.rows_scored == 1
        assert engine.stats.dedup_saved == 1

    def test_different_content_different_fingerprint(self, toy_pair):
        other = toy_pair.with_side("left", {"name": "different", "price": "1"})
        matcher = CountingMatcher(HalfMatcher())
        engine = PredictionEngine(matcher)
        engine.predict_pairs([toy_pair, other])
        assert matcher.rows_scored == 2
        assert engine.stats.dedup_saved == 0


class TestConstruction:
    def test_engine_holds_the_raw_matcher(self, beer_matcher):
        assert PredictionEngine(beer_matcher).matcher is beer_matcher

    def test_rejects_non_matchers(self):
        with pytest.raises(ConfigurationError, match="predict_proba"):
            PredictionEngine(object())

    def test_rejects_everything_else(self):
        with pytest.raises(ConfigurationError, match="expected a matcher"):
            PredictionEngine(42)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(cache_size=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(batch_size=0)


class TestPredictPairs:
    def test_matches_direct_call(self, beer_matcher, beer_dataset):
        pairs = list(beer_dataset)[:20]
        engine = PredictionEngine(beer_matcher)
        direct = beer_matcher.predict_proba(pairs)
        assert np.array_equal(engine.predict_pairs(pairs), direct)

    def test_duplicates_cost_one_call(self, counting_matcher, match_pair):
        engine = PredictionEngine(counting_matcher)
        probabilities = engine.predict_pairs([match_pair] * 10)
        assert counting_matcher.rows_scored == 1
        assert len(set(probabilities.tolist())) == 1
        assert engine.stats.dedup_saved == 9

    def test_cache_persists_across_requests(self, counting_matcher, match_pair):
        engine = PredictionEngine(counting_matcher)
        first = engine.predict_one(match_pair)
        second = engine.predict_one(match_pair)
        assert first == second
        assert counting_matcher.rows_scored == 1
        assert engine.stats.cache_hits == 1

    def test_empty_request(self, beer_matcher):
        engine = PredictionEngine(beer_matcher)
        assert engine.predict_pairs([]).shape == (0,)

    def test_chunking_matches_single_batch(self, beer_matcher, beer_dataset):
        pairs = distinct_pairs(beer_dataset, 30)
        whole = beer_matcher.predict_proba(pairs)
        engine = PredictionEngine(beer_matcher, EngineConfig(batch_size=7))
        assert np.array_equal(whole, engine.predict_pairs(pairs))
        assert engine.stats.batches == 5

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_chunk_failure_propagates_without_hidden_retry(
        self, beer_matcher, beer_dataset, failing_call
    ):
        # Retries belong to the matcher guard (inactive here): the chunk
        # that fails fails the call, the chunks after it are never
        # scored, and no chunk is scored a second time.
        failing = FailingMatcher(beer_matcher, failing_call)
        engine = PredictionEngine(failing, EngineConfig(batch_size=8))
        with pytest.raises(MatcherFault):
            engine.predict_pairs(distinct_pairs(beer_dataset, 32))
        assert failing.calls == failing_call
        assert failing.rows_scored == 8 * (failing_call - 1)
        assert engine.stats.guard_retries == 0

    def test_one_scoring_method_serves_every_entry_point(
        self, beer_matcher, beer_dataset, match_pair
    ):
        # Pairs, single pairs and mask matrices all reach the matcher as
        # columnar batches, chunked at the engine's batch size.
        from repro.core.generation import LandmarkGenerator

        columnar = ColumnarOnlyMatcher(beer_matcher)
        engine = PredictionEngine(columnar, EngineConfig(batch_size=64))
        pairs = distinct_pairs(beer_dataset, 70)
        assert np.array_equal(
            engine.predict_pairs(pairs), beer_matcher.predict_proba(pairs)
        )
        assert columnar.batches == [64, 6]
        engine.cache_clear()
        assert engine.predict_one(match_pair) == beer_matcher.predict_one(
            match_pair
        )
        assert columnar.batches == [64, 6, 1]
        engine.cache_clear()
        instance = LandmarkGenerator().generate(
            match_pair, "left", GENERATION_SINGLE
        )
        engine.predict_instance(
            instance, np.ones((3, len(instance.tokens)), dtype=np.int8)
        )
        assert columnar.batches == [64, 6, 1, 1]

    def test_pairs_of_two_schemas_are_refused(self, match_pair, toy_pair):
        engine = PredictionEngine(HalfMatcher())
        with pytest.raises(ValueError, match="one schema"):
            engine.predict_pairs([match_pair, toy_pair])

    def test_lru_eviction_bounds_cache(self, beer_matcher, beer_dataset):
        engine = PredictionEngine(beer_matcher, EngineConfig(cache_size=5))
        engine.predict_pairs(list(beer_dataset)[:20])
        assert engine.cache_len <= 5


class TestBatchWidthBuckets:
    def test_wide_batch_lands_in_a_finite_bucket(self, beer_dataset,
                                                 beer_matcher):
        """A row-count histogram needs row buckets: with the seconds
        buckets (up to 120) a 157-row batch lands only in ``+Inf``."""
        pairs = distinct_pairs(beer_dataset, 157)
        registry = MetricsRegistry()
        engine = PredictionEngine(beer_matcher, metrics=registry)
        engine.predict_pairs(pairs)
        assert engine.stats.batches == 1
        text = families_to_prometheus(registry.collect())
        buckets = {}
        for line in text.splitlines():
            if line.startswith("repro_engine_batch_width_bucket"):
                bound = line.split('le="')[1].split('"')[0]
                buckets[bound] = int(line.rsplit(" ", 1)[1])
        assert buckets.pop("+Inf") == 1
        assert any(
            count == 1 and float(bound) >= 157
            for bound, count in buckets.items()
        )


class TestAllZerosMask:
    def test_fully_removed_entity_predicts_finite(self, beer_matcher, match_pair):
        # Regression: an all-zeros mask empties every attribute of the
        # varying entity; the rebuilt pair's probability must stay finite.
        from repro.core.generation import LandmarkGenerator

        instance = LandmarkGenerator().generate(
            match_pair, "left", GENERATION_SINGLE
        )
        engine = PredictionEngine(beer_matcher)
        masks = np.zeros((3, len(instance.tokens)), dtype=np.int8)
        probabilities = engine.predict_instance(instance, masks)
        assert np.isfinite(probabilities).all()
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))


MATCHER_FACTORIES = ["logistic", "rules", "boosted"]


@pytest.fixture(scope="module")
def matchers(beer_dataset):
    from repro.matchers.boosting import GradientBoostedStumpsMatcher
    from repro.matchers.logistic import LogisticRegressionMatcher
    from repro.matchers.rules import RuleBasedMatcher

    return {
        "logistic": LogisticRegressionMatcher().fit(beer_dataset),
        "rules": RuleBasedMatcher().fit(beer_dataset),
        "boosted": GradientBoostedStumpsMatcher().fit(beer_dataset),
    }


class TestEquivalence:
    @pytest.mark.parametrize("matcher_name", MATCHER_FACTORIES)
    def test_engine_settings_never_change_weights(
        self, matchers, matcher_name, match_pair
    ):
        matcher = matchers[matcher_name]
        baseline = explain_weights(
            matcher, match_pair, TransparentEngine(matcher)
        )
        for config in (
            EngineConfig(),
            EngineConfig(cache_size=1),
            EngineConfig(batch_size=13),
        ):
            candidate = explain_weights(
                matcher, match_pair, PredictionEngine(matcher, config)
            )
            assert np.array_equal(baseline[0], candidate[0])
            assert np.array_equal(baseline[1], candidate[1])

    def test_double_generation_equivalence(self, matchers, non_match_pair):
        matcher = matchers["logistic"]
        baseline = explain_weights(
            matcher, non_match_pair, TransparentEngine(matcher),
            GENERATION_DOUBLE,
        )
        candidate = explain_weights(
            matcher, non_match_pair, PredictionEngine(matcher),
            GENERATION_DOUBLE,
        )
        assert np.array_equal(baseline[0], candidate[0])
        assert np.array_equal(baseline[1], candidate[1])


class TestAccounting:
    def test_counter_identities_after_explanation(
        self, counting_matcher, match_pair
    ):
        engine = PredictionEngine(counting_matcher)
        explain_weights(counting_matcher, match_pair, engine)
        stats = engine.stats
        assert stats.requested > 0
        assert stats.calls_issued + stats.calls_saved == stats.requested
        assert stats.calls_saved == stats.dedup_saved + stats.cache_hits
        assert stats.calls_issued == counting_matcher.rows_scored

    def test_requested_counts_every_mask_row(self, beer_matcher, match_pair):
        from repro.core.generation import LandmarkGenerator

        instance = LandmarkGenerator().generate(
            match_pair, "left", GENERATION_SINGLE
        )
        engine = PredictionEngine(beer_matcher)
        rng = np.random.default_rng(0)
        masks = rng.integers(0, 2, size=(25, len(instance.tokens)))
        engine.predict_instance(instance, masks)
        assert engine.stats.requested == 25

    def test_cache_shared_across_landmark_sides(self, counting_matcher, match_pair):
        engine = PredictionEngine(counting_matcher)
        explainer = LandmarkExplainer(
            counting_matcher, lime_config=LimeConfig(n_samples=48, seed=0),
            seed=0, engine=engine,
        )
        explainer.explain(match_pair, GENERATION_SINGLE)
        first_run_rows = counting_matcher.rows_scored
        # Re-explaining the same record must be answered (almost) entirely
        # from the cache: only rows never rebuilt before cost a call.
        explainer.explain(match_pair, GENERATION_SINGLE)
        assert counting_matcher.rows_scored == first_run_rows
        assert engine.stats.hit_rate > 0.0

    def test_reset_stats(self, beer_matcher, match_pair):
        engine = PredictionEngine(beer_matcher)
        engine.predict_one(match_pair)
        old = engine.reset_stats()
        assert old.requested == 1
        assert engine.stats.requested == 0

    def test_stats_roundtrip_and_add(self):
        stats = EngineStats(requested=10, calls_issued=4, dedup_saved=3,
                            cache_hits=3, cache_misses=4, batches=2)
        restored = EngineStats.from_counters(stats.as_dict())
        assert restored == stats
        total = EngineStats().add(stats).add(stats)
        assert total.requested == 20
        assert total.calls_saved == 12

    def test_summary_mentions_savings(self):
        stats = EngineStats(requested=10, calls_issued=5)
        assert "2.00x" in stats.summary()


def evaluation_grid_weights(matcher, sample, engine):
    """The experiment grid on *sample* (explain every record with every
    method, then score the token-removal and interest evaluations) with
    every model call through *engine*; returns the weights."""
    explainers = MethodExplainers(
        matcher, lime_config=LimeConfig(n_samples=48, seed=0), seed=0,
        engine=engine,
    )
    eval_matcher = engine.as_matcher()
    weights = {}
    for label in (MATCH, NON_MATCH):
        pairs = sample.by_label(label).pairs
        for method in ALL_METHODS:
            if method == METHOD_MOJITO_COPY and label == MATCH:
                continue
            explained = [explainers.explain(method, pair) for pair in pairs]
            for record in explained:
                weights[(record.pair.pair_id, method)] = tuple(
                    (entry.key, entry.weight)
                    for entry in record.token_weights.entries
                )
            token_removal_eval(explained, eval_matcher, seed=0)
            interest_eval(explained, eval_matcher)
        # The recommended ("auto") dual reuses the forced columns' rows.
        for pair in pairs:
            weights[(pair.pair_id, "auto")] = tuple(
                (entry.key, entry.weight)
                for entry in explainers.landmark.explain(pair).combined().entries
            )
    return weights


class TestEvaluationGridSavings:
    """The engine's payoff on the experiment grid (S-BR, 3 records per
    label): identical weights at a fraction of the matcher calls.  The
    reference run sends every requested row to the matcher
    (:class:`TransparentEngine`), so its row count is what one shared
    engine is asked for."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.data.splits import sample_per_label
        from repro.data.synthetic.magellan import load_dataset
        from repro.matchers.logistic import LogisticRegressionMatcher

        dataset = load_dataset("S-BR", seed=0, size_cap=300)
        matcher = LogisticRegressionMatcher().fit(dataset)
        sample = sample_per_label(dataset, 3, seed=0)
        off, on = CountingMatcher(matcher), CountingMatcher(matcher)
        off_weights = evaluation_grid_weights(off, sample, TransparentEngine(off))
        engine = PredictionEngine(on)
        on_weights = evaluation_grid_weights(on, sample, engine)
        return off, off_weights, on, on_weights, engine.stats

    def test_weights_equal_engine_off(self, runs):
        _, off_weights, _, on_weights, _ = runs
        assert len(off_weights) == 33
        assert on_weights == off_weights

    def test_accounting_matches_the_transparent_run(self, runs):
        off, _, on, _, stats = runs
        assert stats.requested == off.rows_scored
        assert stats.calls_issued == on.rows_scored
        assert stats.calls_issued + stats.calls_saved == stats.requested

    def test_engine_saves_at_least_one_and_a_half_times(self, runs):
        stats = runs[-1]
        assert stats.requested / stats.calls_issued >= 1.5


class TestEngineMatcherAdapter:
    def test_adapter_routes_through_cache(self, counting_matcher, match_pair):
        engine = PredictionEngine(counting_matcher)
        adapter = engine.as_matcher()
        a = adapter.predict_proba([match_pair])
        b = adapter.predict_proba([match_pair])
        assert np.array_equal(a, b)
        assert counting_matcher.rows_scored == 1

    def test_adapter_fit_clears_cache(self, beer_dataset, match_pair):
        from repro.matchers.logistic import LogisticRegressionMatcher

        matcher = LogisticRegressionMatcher().fit(beer_dataset)
        engine = PredictionEngine(matcher)
        engine.predict_one(match_pair)
        assert engine.cache_len == 1
        engine.as_matcher().fit(beer_dataset)
        assert engine.cache_len == 0


class TestThreadSafety:
    """Regression: the engine is shared by the service's worker pool, so
    its stats and LRU cache must stay consistent under concurrent use."""

    def test_hammer_preserves_accounting_invariants(
        self, beer_matcher, beer_dataset
    ):
        import threading

        engine = PredictionEngine(beer_matcher)
        pairs = list(beer_dataset[:20])
        n_threads, rounds = 8, 5
        barrier = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer() -> None:
            barrier.wait()
            try:
                for _ in range(rounds):
                    engine.predict_pairs(pairs)
                    for pair in pairs[:5]:
                        engine.predict_one(pair)
            except BaseException as error:  # noqa: BLE001 - collected
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        stats = engine.stats
        expected = n_threads * rounds * (len(pairs) + 5)
        assert stats.requested == expected
        assert stats.calls_issued + stats.calls_saved == stats.requested
        assert stats.calls_saved == stats.dedup_saved + stats.cache_hits
        assert stats.cache_misses + stats.cache_hits + stats.dedup_saved == stats.requested
        # One cache slot per distinct pair content, however many threads.
        assert 0 < engine.cache_len <= len(pairs)

    def test_hammer_results_match_serial(self, beer_matcher, beer_dataset):
        import threading

        pairs = list(beer_dataset[:10])
        serial = PredictionEngine(beer_matcher).predict_pairs(pairs)
        engine = PredictionEngine(beer_matcher)
        results: dict[int, np.ndarray] = {}
        barrier = threading.Barrier(4)

        def worker(index: int) -> None:
            barrier.wait()
            results[index] = engine.predict_pairs(pairs)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for probabilities in results.values():
            assert np.array_equal(probabilities, serial)

    def test_hammer_with_threaded_batches(self, beer_matcher, beer_dataset):
        # Concurrent callers whose requests each span several chunks.
        import threading

        engine = PredictionEngine(beer_matcher, EngineConfig(batch_size=8))
        pairs = list(beer_dataset[:30])
        barrier = threading.Barrier(4)
        failures: list[BaseException] = []

        def hammer() -> None:
            barrier.wait()
            try:
                engine.predict_pairs(pairs)
            except BaseException as error:  # noqa: BLE001 - collected
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        stats = engine.stats
        assert stats.calls_issued + stats.calls_saved == stats.requested
