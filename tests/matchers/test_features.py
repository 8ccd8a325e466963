"""Tests for the per-attribute feature extractor."""

import hashlib
import os
import subprocess
import sys
from dataclasses import astuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest

try:  # NumPy's CPU dispatch state: __cpu_dispatch__, __cpu_features__
    from numpy._core import _multiarray_umath as simd
except ImportError:  # NumPy < 2
    from numpy.core import _multiarray_umath as simd

from repro.core.columnar import ColumnarPairBatch, ValueColumn
from repro.core.serialize import matcher_fingerprint
from repro.data.records import RecordPair
from repro.data.schema import PairSchema
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.features import (
    BASE_MEASURES,
    FeatureConfig,
    PairFeatureExtractor,
    _numeric_similarity,
    _parse_number,
    _token_set_similarities,
)
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.text.similarity import (
    dice_coefficient,
    jaccard_similarity,
    numeric_similarity,
    overlap_coefficient,
)
from tests.matchers.feature_reference import reference_matrix


@pytest.fixture()
def schema():
    return PairSchema(("name", "price"))


@pytest.fixture()
def extractor(schema):
    return PairFeatureExtractor(schema)


def make_pair(schema, left_name, right_name, left_price="10", right_price="10"):
    return RecordPair(
        schema,
        {"name": left_name, "price": left_price},
        {"name": right_name, "price": right_price},
    )


class TestShape:
    def test_n_features(self, extractor, schema):
        assert extractor.n_features == len(schema) * len(BASE_MEASURES)

    def test_feature_names_are_grouped(self, extractor):
        names = extractor.feature_names
        assert names[0].startswith("name.")
        assert names[len(BASE_MEASURES)].startswith("price.")

    def test_attribute_groups_cover_all_columns(self, extractor):
        groups = extractor.attribute_groups()
        covered = []
        for group in groups.values():
            covered.extend(range(group.start, group.stop))
        assert sorted(covered) == list(range(extractor.n_features))

    def test_monge_elkan_optional(self, schema):
        with_me = PairFeatureExtractor(schema, FeatureConfig(use_monge_elkan=True))
        assert "name.monge_elkan" in with_me.feature_names
        without = PairFeatureExtractor(schema)
        assert "name.monge_elkan" not in without.feature_names

    def test_transform_empty_list(self, extractor):
        result = extractor.transform([])
        assert result.shape == (0, extractor.n_features)


class TestValues:
    def test_identical_pair_has_high_similarity(self, extractor, schema):
        pair = make_pair(schema, "golden ale", "golden ale")
        features = extractor.transform_pair(pair)
        # The numeric measure is 0 for non-numeric values by design; every
        # other measure must be 1 on an identical pair.
        numeric_columns = {
            i for i, name in enumerate(extractor.feature_names)
            if name.endswith(".numeric")
        }
        for i, value in enumerate(features):
            if i in numeric_columns and extractor.feature_names[i] == "name.numeric":
                assert value == 0.0
            else:
                assert value >= 0.99

    def test_disjoint_pair_scores_low(self, extractor, schema):
        pair = make_pair(schema, "golden ale", "nikon case", "1", "999")
        features = extractor.transform_pair(pair)
        by_name = dict(zip(extractor.feature_names, features))
        # Token-set measures see no overlap at all.
        assert by_name["name.jaccard"] == 0.0
        assert by_name["name.overlap"] == 0.0
        assert by_name["name.dice"] == 0.0
        assert by_name["name.exact"] == 0.0
        assert by_name["name.levenshtein"] < 0.5

    def test_all_features_bounded(self, extractor, schema):
        pair = make_pair(schema, "sony camera x", "sony kamera", "10.5", "12")
        features = extractor.transform_pair(pair)
        assert np.all(features >= 0.0)
        assert np.all(features <= 1.0)

    def test_both_empty_attribute_is_all_zero(self, extractor, schema):
        pair = make_pair(schema, "a", "a", left_price="", right_price="")
        features = extractor.transform_pair(pair)
        groups = extractor.attribute_groups()
        assert np.all(features[groups["price"]] == 0.0)

    def test_one_side_empty_scores_zero_similarity(self, extractor, schema):
        pair = make_pair(schema, "golden ale", "", "10", "10")
        features = extractor.transform_pair(pair)
        groups = extractor.attribute_groups()
        name_features = features[groups["name"]]
        assert np.all(name_features == 0.0)

    def test_nan_looking_values_stay_finite(self, extractor, schema):
        # "nan" parses as float("nan"); the numeric measure must not leak it.
        pair = make_pair(schema, "nan", "nan", left_price="nan", right_price="5")
        features = extractor.transform_pair(pair)
        assert np.isfinite(features).all()
        assert np.all(features >= 0.0)
        assert np.all(features <= 1.0)

#: Value pool for the parity fuzz: empties, numerics that parse to
#: non-finite floats, non-ASCII and non-BMP text, and tokens that build
#: values far longer than ``char_cap``.
TOKENS = [
    "sony", "kamera", "camera", "dslr-a200w", "10.5", "12", "0", "-3",
    "nan", "NaN", "inf", "-inf", "1e400", "café", "crème", "naïve",
    "水", "欧ラ", "😀", "𠀋", "𝔘𝔫𝔦", "black/white", "#1", "", " ",
    "a" * 40, "supercalifragilisticexpialidocious",
]
SPECIAL_VALUES = ["", " ", "nan", " NaN ", "inf", "-inf", "1e400", "😀𠀋"]


def random_value(rng):
    if rng.random() < 0.2:
        return str(rng.choice(SPECIAL_VALUES))
    n_tokens = int(rng.integers(0, 7))
    return " ".join(str(token) for token in rng.choice(TOKENS, size=n_tokens))


def random_pairs(schema, seed, count=80):
    rng = np.random.default_rng(seed)
    pool = [random_value(rng) for _ in range(24)]
    pairs = []
    for _ in range(count):
        # Draw from a small pool so triples repeat within one batch.
        left = {a: str(rng.choice(pool)) for a in schema.attributes}
        right = {a: str(rng.choice(pool)) for a in schema.attributes}
        pairs.append(RecordPair(schema, left, right))
    return pairs


def columnar_batch(pairs):
    """The pairs as one columnar batch (distinct values per cell)."""
    columns = {}
    for side in ("left", "right"):
        for attribute in pairs[0].schema.attributes:
            cells = [pair.entity(side)[attribute] for pair in pairs]
            values = sorted(set(cells))
            lookup = {value: code for code, value in enumerate(values)}
            index = np.array([lookup[cell] for cell in cells], dtype=np.intp)
            columns[(side, attribute)] = ValueColumn(values, index)
    return ColumnarPairBatch(pairs[0], columns, len(pairs))


PARITY_CONFIGS = {
    "default": FeatureConfig(),
    "monge_elkan": FeatureConfig(use_monge_elkan=True),
    "evicting": FeatureConfig(cache_size=2),
    "short_cap": FeatureConfig(char_cap=5),
}


class TestReferenceParity:
    """Every transform entry point equals the scalar reference bit for bit."""

    @pytest.fixture(params=sorted(PARITY_CONFIGS))
    def config(self, request):
        return PARITY_CONFIGS[request.param]

    @pytest.fixture()
    def wide_schema(self):
        return PairSchema(("title", "brand", "price"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transform(self, config, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed)
        expected = reference_matrix(config, pairs)
        extractor = PairFeatureExtractor(wide_schema, config)
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        # A second pass is served (at least partly) from the memo.
        assert extractor.transform(pairs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_transform_pair(self, config, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed, count=30)
        expected = reference_matrix(config, pairs)
        extractor = PairFeatureExtractor(wide_schema, config)
        for row, pair in zip(expected, pairs):
            features = extractor.transform_pair(pair)
            assert features.shape == (extractor.n_features,)
            assert features.tobytes() == row.tobytes()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_transform_columnar(self, config, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed)
        expected = reference_matrix(config, pairs)
        extractor = PairFeatureExtractor(wide_schema, config)
        batch = columnar_batch(pairs)
        assert extractor.transform_columnar(batch).tobytes() == expected.tobytes()
        # Mixing entry points on one warm memo changes nothing.
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        assert extractor.transform_columnar(batch).tobytes() == expected.tobytes()

    def test_edge_values(self, config, schema):
        long_value = "abcdefghij " * 8
        cases = [
            ("", ""), ("", "x"), (" ", "  "), ("nan", "NaN"), ("nan", "5"),
            (" NaN ", "nan"), ("inf", "inf"), ("-inf", "1e400"), ("inf", "3"),
            ("café crème", "cafe creme"), ("😀 𠀋", "😀 𠀌"), ("𝔘𝔫𝔦", "uni"),
            (long_value, long_value + "x"), (long_value, "abcdefghij"),
        ]
        pairs = [
            make_pair(schema, left, right, right, left) for left, right in cases
        ]
        expected = reference_matrix(config, pairs)
        extractor = PairFeatureExtractor(schema, config)
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        fresh = PairFeatureExtractor(schema, config)
        batch = columnar_batch(pairs)
        assert fresh.transform_columnar(batch).tobytes() == expected.tobytes()
        assert np.isfinite(expected).all()

    def test_columnar_schema_mismatch_rejected(self, extractor, wide_schema):
        batch = columnar_batch(random_pairs(wide_schema, 0, count=3))
        with pytest.raises(ValueError):
            extractor.transform_columnar(batch)


#: ``matcher_fingerprint`` of the benchmark harness's model (logistic
#: regression on S-WA, seed 0, 2000 pairs), recorded before the feature
#: extractor was batched.  Training features must never drift from it.
SWA_LOGISTIC_FINGERPRINT = (
    "fe2d75f6a36b10a6841998ca582e1b74ab5e53a4d8159bdba4e6416805e5d87d"
)

#: The same for the full S-BR (the bulk workload's corpus) and S-IA (a
#: golden-file corpus), recorded before the extractor's scalar measures
#: were vectorized and its kernels bucketed by width.
FULL_SIZE_LOGISTIC_FINGERPRINTS = {
    "S-BR": "5e7b78ae9f5b824f769275ccfd215ead20bc18ef00810d803c807aa3dfd4f31e",
    "S-IA": "52f090cea24c466c763408e831ddebea2ba696ce22a5a362cb0183d6c07c9807",
}

#: Child-process script: the S-WA training feature digest, then the
#: dispatched SIMD extensions that are still switched on.
SWA_FEATURE_DIGEST = """
from hashlib import sha256
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.features import PairFeatureExtractor
try:
    from numpy._core import _multiarray_umath as simd
except ImportError:
    from numpy.core import _multiarray_umath as simd
dataset = load_dataset("S-WA", seed=0, size_cap=2000)
extractor = PairFeatureExtractor(dataset.schema)
print(sha256(extractor.transform(dataset.pairs).tobytes()).hexdigest())
print(" ".join(f for f in simd.__cpu_dispatch__ if simd.__cpu_features__.get(f)))
"""


def learned_arrays(matcher):
    """The learned parameters of a fitted matcher, as raw bytes."""
    if isinstance(matcher, GradientBoostedStumpsMatcher):
        stumps = np.array(
            [astuple(stump) for stump in matcher.stumps_], dtype=np.float64
        )
        return [np.float64(matcher.prior_).tobytes(), stumps.tobytes()]
    if isinstance(matcher, MLPMatcher):
        return [array.tobytes() for array in matcher._weights + matcher._biases]
    return [matcher.coef_.tobytes(), np.float64(matcher.intercept_).tobytes()]


class TestTrainedModels:
    def test_harness_model_fingerprint_is_pinned(self):
        dataset = load_dataset("S-WA", seed=0, size_cap=2000)
        matcher = LogisticRegressionMatcher().fit(dataset)
        assert matcher_fingerprint(matcher) == SWA_LOGISTIC_FINGERPRINT

    @pytest.mark.parametrize("code", sorted(FULL_SIZE_LOGISTIC_FINGERPRINTS))
    def test_full_size_model_fingerprints_are_pinned(self, code):
        matcher = LogisticRegressionMatcher().fit(load_dataset(code, seed=0))
        assert matcher_fingerprint(matcher) == FULL_SIZE_LOGISTIC_FINGERPRINTS[code]

    def test_features_equal_on_baseline_simd_loops(self):
        # Features use no BLAS, only elementwise numpy loops, so their bits
        # must not depend on which SIMD path numpy dispatches to.  The child
        # switches off every dispatched extension (the names depend on the
        # NumPy version: AVX2, AVX512F… in older releases, X86_V3, X86_V4…
        # in 2.4, which ignores the old names) and reports any left on.
        dispatched = list(simd.__cpu_dispatch__)
        if not dispatched:
            pytest.skip("this NumPy build dispatches no SIMD extensions")
        dataset = load_dataset("S-WA", seed=0, size_cap=2000)
        extractor = PairFeatureExtractor(dataset.schema)
        here = hashlib.sha256(extractor.transform(dataset.pairs).tobytes())
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", SWA_FEATURE_DIGEST],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digest, still_on = (child.stdout.split("\n") + [""])[:2]
        assert still_on == ""
        assert digest == here.hexdigest()

    @pytest.mark.parametrize(
        "make_matcher",
        [
            lambda: LogisticRegressionMatcher(),
            lambda: GradientBoostedStumpsMatcher(n_stumps=15),
            lambda: MLPMatcher(epochs=30),
        ],
        ids=["logistic", "boosting", "mlp"],
    )
    def test_fit_equals_fit_on_reference_features(self, make_matcher, monkeypatch):
        dataset = load_dataset("S-BR", seed=0, size_cap=160)
        fitted = make_matcher().fit(dataset)
        monkeypatch.setattr(
            PairFeatureExtractor,
            "transform",
            lambda self, pairs: reference_matrix(self.config, pairs),
        )
        reference = make_matcher().fit(dataset)
        assert learned_arrays(fitted) == learned_arrays(reference)


NUMERIC_EDGE_VALUES = (
    "", "nan", "inf", "-inf", "1e400", "-1e400", "0", "-0", "0.0", "-0.0",
    "-3.5", "-7", "2", "7", "3.5", "1e308", "-1e308", "1_000", "12abc",
    "abc", "Infinity", "١٢", " 5 ",
)


class TestVectorizedMeasures:
    def test_numeric_matches_scalar_on_edge_values(self):
        # Every ordered pair of edge values: unparsable, empty and
        # non-finite text on either side and on both, signed zeros,
        # negatives, equal values and overflowing differences.
        pairs = list(product(NUMERIC_EDGE_VALUES, repeat=2))
        left = np.array([_parse_number(a) for a, _ in pairs])
        right = np.array([_parse_number(b) for _, b in pairs])
        both_empty = np.array([not a and not b for a, b in pairs])
        vectorized = _numeric_similarity(left, right, both_empty)
        for index, (a, b) in enumerate(pairs):
            expected = np.float64(numeric_similarity(a, b))
            assert vectorized[index].tobytes() == expected.tobytes(), (a, b)

    def test_token_set_measures_match_scalar(self):
        sets = [set(), {"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}, {"c", "d", "e"}]
        pairs = list(product(sets, repeat=2))
        sizes = np.array([[len(a), len(b), len(a & b)] for a, b in pairs])
        jaccard, overlap, dice = _token_set_similarities(*sizes.T)
        for index, (a, b) in enumerate(pairs):
            assert jaccard[index] == jaccard_similarity(a, b)
            assert overlap[index] == overlap_coefficient(a, b)
            assert dice[index] == dice_coefficient(a, b)


class TestCache:
    def test_cache_hit_returns_same_values(self, extractor, schema):
        pair = make_pair(schema, "sony camera", "sony kamera")
        first = extractor.transform_pair(pair).copy()
        second = extractor.transform_pair(pair)
        assert np.array_equal(first, second)

    def test_cache_eviction_resets(self, schema):
        extractor = PairFeatureExtractor(schema, FeatureConfig(cache_size=2))
        for i in range(10):
            pair = make_pair(schema, f"name {i}", "other")
            extractor.transform_pair(pair)
        # Must still compute correctly after evictions.
        pair = make_pair(schema, "name 0", "other")
        features = extractor.transform_pair(pair)
        assert features.shape == (extractor.n_features,)

    def test_clear_cache(self, extractor, schema):
        extractor.transform_pair(make_pair(schema, "a", "b"))
        extractor.clear_cache()
        assert not extractor._cache
