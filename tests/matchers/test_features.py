"""Tests for the per-attribute feature extractor."""

import functools
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
from repro.matchers import features as feature_module
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.features import (
    BASE_MEASURES,
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
#: values far longer than ``CHAR_CAP``.
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


#: Module constants of :mod:`repro.matchers.features` patched per case:
#: a two-entry memo evicts on almost every call, and a five-character cap
#: truncates most values before the character measures.
PARITY_CONFIGS = {
    "default": {},
    "evicting": {"CACHE_SIZE": 2},
    "short_cap": {"CHAR_CAP": 5},
}


class TestReferenceParity:
    """Every transform entry point equals the scalar reference bit for bit."""

    @pytest.fixture(params=sorted(PARITY_CONFIGS))
    def constants(self, request, monkeypatch):
        for name, value in PARITY_CONFIGS[request.param].items():
            monkeypatch.setattr(feature_module, name, value)

    @pytest.fixture()
    def wide_schema(self):
        return PairSchema(("title", "brand", "price"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transform(self, constants, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed)
        expected = reference_matrix(pairs)
        extractor = PairFeatureExtractor(wide_schema)
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        # A second pass is served (at least partly) from the memo.
        assert extractor.transform(pairs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_transform_pair(self, constants, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed, count=30)
        expected = reference_matrix(pairs)
        extractor = PairFeatureExtractor(wide_schema)
        for row, pair in zip(expected, pairs):
            features = extractor.transform_pair(pair)
            assert features.shape == (extractor.n_features,)
            assert features.tobytes() == row.tobytes()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_transform_columnar(self, constants, wide_schema, seed):
        pairs = random_pairs(wide_schema, seed)
        expected = reference_matrix(pairs)
        extractor = PairFeatureExtractor(wide_schema)
        batch = columnar_batch(pairs)
        assert extractor.transform_columnar(batch).tobytes() == expected.tobytes()
        # Mixing entry points on one warm memo changes nothing.
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        assert extractor.transform_columnar(batch).tobytes() == expected.tobytes()

    def test_edge_values(self, constants, schema):
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
        expected = reference_matrix(pairs)
        extractor = PairFeatureExtractor(schema)
        assert extractor.transform(pairs).tobytes() == expected.tobytes()
        fresh = PairFeatureExtractor(schema)
        batch = columnar_batch(pairs)
        assert fresh.transform_columnar(batch).tobytes() == expected.tobytes()
        assert np.isfinite(expected).all()

    def test_columnar_schema_mismatch_rejected(self, extractor, schema, wide_schema):
        batch = columnar_batch(random_pairs(wide_schema, 0, count=3))
        with pytest.raises(ValueError):
            extractor.transform_columnar(batch)
        # A pair list goes through the same check, even when its schema
        # only adds an attribute to the extractor's.
        extra = PairSchema((*schema.attributes, "extra"))
        with pytest.raises(ValueError):
            extractor.transform(random_pairs(extra, 0, count=3))


#: sha256 over ``coef_``, ``intercept_``, ``_mean`` and ``_scale`` of the
#: logistic regression fitted on S-WA (seed 0, 2000 pairs: the benchmark
#: harness's model), the full S-BR (the bulk workload's corpus) and the
#: full S-IA (a golden-file corpus), recorded while training still had a
#: feature path of its own.  What training learns must never drift.
LEARNED_PARAMETER_DIGESTS = {
    "S-WA": "73cc845664c8aa92beee8ec87c96007069676e998374fbf9217272052c966714",
    "S-BR": "4bb10bc79c8dcbd3177198a3b575ed3e40ad35c781ff6311a1eeca84f65698aa",
    "S-IA": "74945c1107b88e23f5d84a157957e555910706028165c7a07787558cd5aea498",
}

#: ``matcher_fingerprint`` of the same three models.  It hashes the whole
#: pickled object graph, so it also moves when an attribute is added to
#: or removed from a matcher or its extractor; the digests above separate
#: that from what was learned.
LOGISTIC_FINGERPRINTS = {
    "S-WA": "55f28d3dbf1c882aec853f2f8e9664bc518a2dd59aaaca9f1094d040938da172",
    "S-BR": "7ea1f435cbe0d2adef52b1441ab190782de5752fa12fa7e268f6a057f8b19aaf",
    "S-IA": "2fd99f6fd8d16d23d45beb9bd1b1c3b34ab7e875670bb32b5fe2ab753ad34603",
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


@functools.cache
def pinned_model(code):
    """The logistic regression of a pinned corpus (S-WA capped at 2000)."""
    size_cap = 2000 if code == "S-WA" else None
    return LogisticRegressionMatcher().fit(
        load_dataset(code, seed=0, size_cap=size_cap)
    )


def learned_parameter_digest(matcher):
    digest = hashlib.sha256()
    for array in (matcher.coef_, matcher.intercept_, matcher._mean, matcher._scale):
        digest.update(np.asarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestTrainedModels:
    @pytest.mark.parametrize("code", sorted(LEARNED_PARAMETER_DIGESTS))
    def test_learned_parameters_are_pinned(self, code):
        digest = learned_parameter_digest(pinned_model(code))
        assert digest == LEARNED_PARAMETER_DIGESTS[code]

    def test_harness_model_fingerprint_is_pinned(self):
        fingerprint = matcher_fingerprint(pinned_model("S-WA"))
        assert fingerprint == LOGISTIC_FINGERPRINTS["S-WA"]

    @pytest.mark.parametrize("code", ["S-BR", "S-IA"])
    def test_full_size_model_fingerprints_are_pinned(self, code):
        assert matcher_fingerprint(pinned_model(code)) == LOGISTIC_FINGERPRINTS[code]

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
            lambda self, pairs: reference_matrix(pairs),
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

    def test_cache_eviction_resets(self, schema, monkeypatch):
        monkeypatch.setattr(feature_module, "CACHE_SIZE", 2)
        extractor = PairFeatureExtractor(schema)
        for i in range(10):
            pair = make_pair(schema, f"name {i}", "other")
            extractor.transform_pair(pair)
        # Must still compute correctly after evictions.
        pair = make_pair(schema, "name 0", "other")
        features = extractor.transform_pair(pair)
        assert features.shape == (extractor.n_features,)

    def test_overfilled_memos_stay_within_the_bound(self, beer_dataset,
                                                    monkeypatch):
        pairs = list(beer_dataset)[:80]
        expected = PairFeatureExtractor(beer_dataset.schema).transform(pairs)
        monkeypatch.setattr(feature_module, "CACHE_SIZE", 2)
        extractor = PairFeatureExtractor(beer_dataset.schema)
        features = extractor.transform(pairs)
        assert len(extractor._cache) <= 2
        assert len(extractor._norm_cache) <= 2
        assert features.tobytes() == expected.tobytes()

    def test_clear_cache(self, extractor, schema):
        extractor.transform_pair(make_pair(schema, "a", "b"))
        extractor.clear_cache()
        assert not extractor._cache
