"""Bit-identity of the columnar mask path against the per-row reference.

Perturbation masks become probabilities along one path: a columnar batch
(:func:`~repro.core.columnar.landmark_batch` / ``mojito_*_batch`` /
``removal_batch``) → the prediction engine's dedup and cache → one
chunked, guarded executor.  These tests pin that path to the per-row
recipes in ``tests/core/mask_reference.py`` — the same pairs row for row
(on every benchmark dataset), the same float64 probabilities and
explanation weights — and pin the weights against engine chunk size,
cache size and warmth, and N distinct requests computed concurrently by
the service's worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mojito import (
    MojitoAttributeDropExplainer,
    MojitoCopyExplainer,
    MojitoDropExplainer,
    _pair_rng,
)
from repro.config import ServiceConfig
from repro.core.columnar import (
    _PACK_LIMIT,
    landmark_batch,
    mojito_attr_drop_batch,
    mojito_copy_batch,
    mojito_drop_batch,
    pairs_batch,
    removal_batch,
)
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.generation import (
    GENERATION_DOUBLE,
    GENERATION_SINGLE,
    LandmarkGenerator,
)
from repro.core.landmark import LandmarkExplainer
from repro.data.records import NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.data.synthetic.magellan import DATASET_CODES, load_dataset
from repro.explainers.lime_text import LimeConfig
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService, duals_from_result
from repro.text.tokenize import Tokenizer
from tests.backends.test_parity import MATCHER_TYPES
from tests.core.mask_reference import (
    TransparentEngine,
    landmark_pair,
    landmark_probabilities,
    mojito_attr_drop_pair,
    mojito_copy_pair,
    mojito_drop_pair,
    pair_content,
    removal_pair,
)
from tests.core.test_engine import distinct_pairs

ENGINE_CONFIGS = {
    "default": EngineConfig(),
    # A one-entry LRU: every new fingerprint evicts the last one.
    "evicting": EngineConfig(cache_size=1),
    "chunked": EngineConfig(batch_size=7),
}


def landmark_weights(matcher, pair, engine=None, samples=48):
    """Combined dual weights of *pair* through *engine* (a fresh default
    engine when omitted; a :class:`TransparentEngine` for the reference)."""
    explainer = LandmarkExplainer(
        matcher,
        engine=engine if engine is not None else PredictionEngine(matcher),
        lime_config=LimeConfig(n_samples=samples, seed=0),
        seed=0,
    )
    dual = explainer.explain(pair)
    return tuple(
        (entry.key, entry.weight) for entry in dual.combined().entries
    )


def dual_cells(payload):
    return tuple(
        (
            generation,
            tuple(
                (entry.key, entry.weight)
                for entry in dual.combined().entries
            ),
        )
        for generation, dual in sorted(duals_from_result(payload).items())
    )


def seeded_masks(n_features: int, seed: int = 0, n_rows: int = 40) -> np.ndarray:
    """Random keep-masks plus the rows the batch builders special-case:
    all ones, all zeros, an exact duplicate, and one near-duplicate per
    feature (row 2 with that one bit flipped), so rows that differ in a
    single token of a wide attribute must stay distinct."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(n_rows, n_features)).astype(np.int8)
    masks[0] = 1
    masks[1] = 0
    masks[3] = masks[2]
    near = np.repeat(masks[2:3], n_features, axis=0)
    near[np.arange(n_features), np.arange(n_features)] ^= 1
    return np.concatenate([masks, near])


def beer_pair(matcher, left: dict, right: dict) -> RecordPair:
    schema = PairSchema(matcher.extractor.schema.attributes)
    return RecordPair(schema=schema, left=left, right=right, label=NON_MATCH)


@pytest.fixture(scope="module")
def fitted_matchers(beer_dataset):
    """Every matcher type of the backend parity suite, fitted on S-BR."""
    return {
        name: matcher_type().fit(beer_dataset)
        for name, matcher_type in MATCHER_TYPES.items()
    }


@pytest.fixture()
def duplicate_words_pair(beer_matcher):
    return beer_pair(
        beer_matcher,
        {"beer_name": "pale ale pale ale", "brew_factory_name": "ale ale",
         "style": "ale", "abv": "5.0"},
        {"beer_name": "ale pale", "brew_factory_name": "pale brewing",
         "style": "pale ale", "abv": "5.0"},
    )


@pytest.fixture()
def wide_pair(beer_matcher):
    # One attribute wider than _PACK_LIMIT tokens (the row-wise unique
    # branch of the batch builders), with repeated words in it.
    words = [f"w{i % 50}" for i in range(_PACK_LIMIT + 8)]
    return beer_pair(
        beer_matcher,
        {"beer_name": " ".join(words), "brew_factory_name": "raven brewing",
         "style": "amber ale", "abv": "11.8"},
        {"beer_name": "w1 w2 w3", "brew_factory_name": "raven",
         "style": "ale", "abv": "11.8"},
    )


class TestLandmarkMaskReference:
    """``landmark_batch`` and ``predict_instance`` against the recipe."""

    def instances(self, pairs):
        generator = LandmarkGenerator()
        for pair in pairs:
            for side in ("left", "right"):
                for generation in (GENERATION_SINGLE, GENERATION_DOUBLE):
                    yield generator.generate(pair, side, generation)

    @pytest.fixture()
    def all_instances(self, non_match_pair, duplicate_words_pair, wide_pair):
        instances = list(
            self.instances([non_match_pair, duplicate_words_pair, wide_pair])
        )
        assert any(instance.n_injected for instance in instances)
        assert any(len(instance.tokens) > _PACK_LIMIT for instance in instances)
        return instances

    def test_batch_rows_equal_rebuilt_pairs(self, all_instances):
        for seed, instance in enumerate(all_instances):
            masks = seeded_masks(len(instance.tokens), seed)
            columnar = landmark_batch(instance, masks).pairs()
            reference = [landmark_pair(instance, row) for row in masks]
            assert [pair_content(p) for p in columnar] == [
                pair_content(p) for p in reference
            ]

    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    def test_predict_instance_is_byte_equal(
        self, beer_matcher, all_instances, config
    ):
        engine = PredictionEngine(beer_matcher, ENGINE_CONFIGS[config])
        for seed, instance in enumerate(all_instances):
            masks = seeded_masks(len(instance.tokens), seed)
            got = engine.predict_instance(instance, masks)
            want = landmark_probabilities(beer_matcher, instance, masks)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(MATCHER_TYPES))
    def test_predict_columnar_is_byte_equal(
        self, fitted_matchers, all_instances, name
    ):
        # Native kernels (logistic, MLP, boosted) and the materializing
        # EntityMatcher default (rules, embedding) alike.
        matcher = fitted_matchers[name]
        engine = PredictionEngine(matcher)
        for seed, instance in enumerate(all_instances):
            masks = seeded_masks(len(instance.tokens), seed)
            got = engine.predict_columnar(landmark_batch(instance, masks))
            want = landmark_probabilities(matcher, instance, masks)
            assert got.tobytes() == want.tobytes()


def seeded_key_sets(pair: RecordPair, seed: int = 4) -> list[list]:
    """Token-key sets over *pair*: none, all, each single key, random
    subsets, and one key that addresses no token."""
    keys = [
        (side, token.attribute, token.position)
        for side in ("left", "right")
        for token in Tokenizer().tokenize_entity(pair.entity(side))
    ]
    rng = np.random.default_rng(seed)
    key_sets = [[], list(keys), [("left", pair.schema.attributes[0], 999)]]
    key_sets += [[key] for key in keys]
    key_sets += [
        [key for key, bit in zip(keys, row) if not bit]
        for row in rng.integers(0, 2, size=(20, len(keys)))
    ]
    return key_sets


def _mojito_cases(matcher, pair):
    """``(name, batch, reference pairs)`` for every pair-level builder:
    the Mojito batches and the token-key removal batch."""
    _, tokens = MojitoDropExplainer(matcher)._features(pair)
    masks = seeded_masks(len(tokens), seed=1)
    yield (
        "drop",
        mojito_drop_batch(pair, tokens, masks),
        [mojito_drop_pair(pair, tokens, row) for row in masks],
    )
    key_sets = seeded_key_sets(pair)
    yield (
        "removal",
        removal_batch(pair, key_sets),
        [removal_pair(pair, keys) for keys in key_sets],
    )
    _, cells = MojitoAttributeDropExplainer(matcher)._features(pair)
    masks = seeded_masks(len(cells), seed=2)
    yield (
        "attr_drop",
        mojito_attr_drop_batch(pair, cells, masks),
        [mojito_attr_drop_pair(pair, cells, row) for row in masks],
    )
    masks = seeded_masks(len(pair.schema), seed=3)
    for copy_from in ("left", "right"):
        yield (
            f"copy_from_{copy_from}",
            mojito_copy_batch(pair, copy_from, masks),
            [mojito_copy_pair(pair, copy_from, row) for row in masks],
        )


class TestMojitoMaskReference:
    """``mojito_*_batch``, ``removal_batch`` and ``predict_columnar``
    against the recipes."""

    @pytest.fixture()
    def pairs(self, non_match_pair, duplicate_words_pair, wide_pair):
        return [non_match_pair, duplicate_words_pair, wide_pair]

    def test_batch_rows_equal_rebuilt_pairs(self, beer_matcher, pairs):
        for pair in pairs:
            for name, batch, reference in _mojito_cases(beer_matcher, pair):
                assert [pair_content(p) for p in batch.pairs()] == [
                    pair_content(p) for p in reference
                ], name

    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    def test_predict_columnar_is_byte_equal(self, beer_matcher, pairs, config):
        engine = PredictionEngine(beer_matcher, ENGINE_CONFIGS[config])
        for pair in pairs:
            for name, batch, reference in _mojito_cases(beer_matcher, pair):
                got = engine.predict_columnar(batch)
                want = beer_matcher.predict_proba(reference)
                assert got.tobytes() == want.tobytes(), name


def values_of(pair: RecordPair) -> tuple:
    return tuple(pair.left.items()), tuple(pair.right.items())


@pytest.mark.parametrize("code", DATASET_CODES)
def test_batch_rows_equal_rebuilt_pairs_on_every_dataset(beer_matcher, code):
    """Every builder, row for row, on the first pairs of each dataset."""
    dataset = load_dataset(code, seed=0, size_cap=200)
    generator = LandmarkGenerator()
    pairs = dataset.pairs[:8] + dataset.pairs[:2]
    assert [values_of(p) for p in pairs_batch(pairs).pairs()] == [
        values_of(p) for p in pairs
    ]
    for pair in dataset.pairs[:8]:
        for name, batch, reference in _mojito_cases(beer_matcher, pair):
            assert [pair_content(p) for p in batch.pairs()] == [
                pair_content(p) for p in reference
            ], name
        for side in ("left", "right"):
            for generation in (GENERATION_SINGLE, GENERATION_DOUBLE):
                instance = generator.generate(pair, side, generation)
                masks = seeded_masks(len(instance.tokens), pair.pair_id)
                rows = landmark_batch(instance, masks).pairs()
                assert [pair_content(p) for p in rows] == [
                    pair_content(landmark_pair(instance, row)) for row in masks
                ], (side, generation)


def _mojito_reference_weights(explainer, matcher, pair) -> np.ndarray:
    """Surrogate weights of *explainer* on *pair*, masks scored per row."""
    names, features = explainer._features(pair)
    if isinstance(explainer, MojitoDropExplainer):
        def rebuild(row):
            return mojito_drop_pair(pair, features, row)
    elif isinstance(explainer, MojitoAttributeDropExplainer):
        def rebuild(row):
            return mojito_attr_drop_pair(pair, features, row)
    else:
        def rebuild(row):
            return mojito_copy_pair(pair, explainer.copy_from, row)

    def predict_masks(masks):
        return matcher.predict_proba([rebuild(row) for row in masks])

    rng = _pair_rng(explainer.seed, explainer.method, pair.pair_id)
    return explainer.explainer.explain(names, predict_masks, rng=rng).weights


class TestBatchSizeIndependence:
    """A row's probability is the same in a batch of any size — the
    engine scores whatever rows miss its cache, so a row that misses
    alone must not score differently from the same row in a crowd."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("name", sorted(MATCHER_TYPES))
    def test_row_probability_is_independent_of_batch_size(
        self, fitted_matchers, beer_dataset, name, size
    ):
        matcher = fitted_matchers[name]
        pairs = distinct_pairs(beer_dataset, 63)
        whole = matcher.predict_proba(pairs)
        columnar = matcher.predict_proba_columnar(pairs_batch(pairs))
        assert columnar.tobytes() == whole.tobytes()
        for start in range(0, len(pairs), size):
            part = pairs[start:start + size]
            want = whole[start:start + size].tobytes()
            assert matcher.predict_proba(part).tobytes() == want, start
            got = matcher.predict_proba_columnar(pairs_batch(part))
            assert got.tobytes() == want, start


class TestEngineParity:
    def test_vectorized_weights_equal_per_pair_weights(
        self, beer_matcher, non_match_pair
    ):
        reference = landmark_weights(
            beer_matcher, non_match_pair, TransparentEngine(beer_matcher)
        )
        assert landmark_weights(beer_matcher, non_match_pair) == reference

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
    def test_weights_invariant_to_chunk_size(
        self, beer_matcher, non_match_pair, batch_size
    ):
        reference = landmark_weights(beer_matcher, non_match_pair)
        chunked = landmark_weights(
            beer_matcher,
            non_match_pair,
            PredictionEngine(beer_matcher, EngineConfig(batch_size=batch_size)),
        )
        assert reference == chunked

    @pytest.mark.parametrize("cache_size", [1, 100_000])
    def test_weights_invariant_to_a_warm_cache(
        self, beer_matcher, non_match_pair, cache_size
    ):
        # The second explanation is answered from the cache (or, with a
        # one-entry LRU, recomputed after evictions); both equal the
        # transparent reference.
        reference = landmark_weights(
            beer_matcher, non_match_pair, TransparentEngine(beer_matcher)
        )
        engine = PredictionEngine(
            beer_matcher, EngineConfig(cache_size=cache_size)
        )
        cold = landmark_weights(beer_matcher, non_match_pair, engine)
        issued = engine.stats.calls_issued
        warm = landmark_weights(beer_matcher, non_match_pair, engine)
        assert cold == warm == reference
        if cache_size > 1:
            assert engine.stats.calls_issued == issued

    @pytest.mark.parametrize(
        "factory",
        [MojitoDropExplainer, MojitoAttributeDropExplainer, MojitoCopyExplainer],
    )
    def test_mojito_weights_equal_across_paths(
        self, beer_matcher, factory, non_match_pair
    ):
        config = LimeConfig(n_samples=32, seed=0)
        own_engine = factory(beer_matcher, config, seed=0)
        shared = factory(
            beer_matcher, config, seed=0, engine=PredictionEngine(beer_matcher)
        )
        reference = _mojito_reference_weights(
            own_engine, beer_matcher, non_match_pair
        )
        for explainer in (own_engine, shared):
            weights = explainer.explain(non_match_pair).explanation.weights
            assert weights.tobytes() == reference.tobytes()

    def test_capacity_branch_beyond_62_tokens(self, beer_matcher):
        # n_features > 62 drops sample_masks into the unbounded-capacity
        # branch; the columnar path must still agree bit for bit.
        schema = PairSchema(beer_matcher.extractor.schema.attributes)
        wide = {
            attribute: " ".join(f"tok{i}{attribute}" for i in range(17))
            for attribute in schema.attributes
        }
        narrow = {attribute: "tok0" for attribute in schema.attributes}
        pair = RecordPair(
            schema=schema, left=wide, right=narrow, label=NON_MATCH
        )
        reference = landmark_weights(
            beer_matcher, pair, TransparentEngine(beer_matcher), samples=24
        )
        assert landmark_weights(beer_matcher, pair, samples=24) == reference


class TestServiceParity:
    def test_concurrent_workers_equal_sequential(self, beer_matcher, beer_dataset):
        requests = [
            ExplainRequest(pair=beer_dataset[index], samples=32, seed=0)
            for index in range(4)
        ]
        with ExplanationService(
            beer_matcher, config=ServiceConfig(n_workers=1)
        ) as sequential:
            baseline = [
                dual_cells(sequential.explain(request)) for request in requests
            ]
        with ExplanationService(
            beer_matcher, config=ServiceConfig(n_workers=4)
        ) as concurrent:
            futures = [concurrent.submit(request) for request in requests]
            computed = [dual_cells(future.result(60)) for future in futures]
        assert baseline == computed
