"""Bit-identity of the batched character kernels vs the scalar reference.

The feature extractor routes Levenshtein and Jaro-Winkler through
:mod:`repro.text.batch_similarity`; these tests pin the contract
that every batched result equals the scalar function's result exactly —
same bits, not "close".
"""

import zlib

import numpy as np
import pytest

from repro.text import batch_similarity
from repro.text.batch_similarity import (
    char_similarities_batch,
    jaro_winkler_similarity_batch,
    levenshtein_distance_batch,
    levenshtein_similarity_batch,
)
from repro.text.similarity import (
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)


def random_strings(rng, count, alphabet, max_len):
    out = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        out.append("".join(rng.choice(alphabet, size=length)))
    return out


ALPHABETS = {
    "binary": list("ab"),
    "ascii": list("abcdefgh xyz0123"),
    "unicode": list("abcé欧ラø水 '"),
}


@pytest.fixture(params=["merged", "every-width"])
def bucketing(request, monkeypatch):
    """Small width groups join a wider bucket by default; "every-width"
    runs each multiple-of-8 width as its own bucket, however few rows."""
    if request.param == "every-width":
        monkeypatch.setattr(batch_similarity, "_MIN_ROWS", 1)
    return request.param


class TestLevenshtein:
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    def test_distance_matches_scalar(self, alphabet):
        rng = np.random.default_rng(zlib.crc32(alphabet.encode()))
        a = random_strings(rng, 300, ALPHABETS[alphabet], 24)
        b = random_strings(rng, 300, ALPHABETS[alphabet], 24)
        batched = levenshtein_distance_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert batched[index] == levenshtein_distance(left, right)

    def test_similarity_bit_identical(self):
        rng = np.random.default_rng(1)
        a = random_strings(rng, 300, ALPHABETS["ascii"], 20)
        b = random_strings(rng, 300, ALPHABETS["ascii"], 20)
        batched = levenshtein_similarity_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert batched[index] == levenshtein_similarity(left, right)

    def test_empty_cases(self):
        a = ["", "abc", "", "a"]
        b = ["", "", "xy", "a"]
        assert levenshtein_distance_batch(a, b).tolist() == [0, 3, 2, 0]
        assert levenshtein_similarity_batch(a, b).tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_empty_batch(self):
        assert levenshtein_distance_batch([], []).shape == (0,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_distance_batch(["a"], [])


class TestJaroWinkler:
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    def test_bit_identical_to_scalar(self, alphabet):
        rng = np.random.default_rng(zlib.crc32(alphabet.encode()))
        a = random_strings(rng, 300, ALPHABETS[alphabet], 24)
        b = random_strings(rng, 300, ALPHABETS[alphabet], 24)
        batched = jaro_winkler_similarity_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert batched[index] == jaro_winkler_similarity(left, right)

    def test_equal_strings_are_exactly_one(self):
        values = ["", "a", "hello world", "é水"]
        batched = jaro_winkler_similarity_batch(values, list(values))
        assert batched.tolist() == [1.0] * len(values)

    def test_transposition_heavy_pairs(self):
        a = ["martha", "dixon", "crate", "ab"]
        b = ["marhta", "dicksonx", "trace", "ba"]
        batched = jaro_winkler_similarity_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert batched[index] == jaro_winkler_similarity(left, right)


class TestJaroBitmaskKernel:
    """The Jaro kernel runs the scalar greedy on per-row uint64 bitmasks,
    one word per 64 b positions; these pin it at every width the feature
    path uses and past one word."""

    def _assert_scalar(self, a, b):
        batched = jaro_winkler_similarity_batch(a, b)
        _, combined = char_similarities_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            want = jaro_winkler_similarity(left, right)
            assert batched[index] == want, (left, right)
            assert combined[index] == want, (left, right)

    @pytest.mark.parametrize("width", range(1, 25))
    def test_every_width_up_to_the_feature_cap(self, width, bucketing):
        rng = np.random.default_rng(width)
        a, b = [], []
        for alphabet in ("ab", "abcdefgh", "abcé欧ラø水 "):
            for _ in range(40):
                length = int(rng.integers(0, width + 1))
                a.append("".join(rng.choice(list(alphabet), size=width)))
                b.append("".join(rng.choice(list(alphabet), size=length)))
        self._assert_scalar(a, b)

    def test_rows_wider_than_one_word(self, bucketing):
        rng = np.random.default_rng(64)
        a, b = [], []
        for width in (63, 64, 65, 100, 127, 128, 129, 200):
            for alphabet in ("ab", "abcdefgh"):
                for _ in range(6):
                    left = "".join(rng.choice(list(alphabet), size=width))
                    right = list(left)
                    rng.shuffle(right[width // 3 :])  # transpositions near the end
                    length = int(rng.integers(1, width + 2))
                    a += [left, left]
                    b += ["".join(right), "".join(rng.choice(list(alphabet), size=length))]
        # Matches whose first free candidate sits just past a word edge.
        a += ["x" * 63 + "ab", "a" + "y" * 70 + "b", "z" * 130]
        b += ["y" * 63 + "ba", "b" + "x" * 70 + "a", "z" * 65]
        self._assert_scalar(a, b)

    def test_empty_and_equal_strings(self, bucketing):
        values = ["", "a", "ab", "abc" * 8, "é水" * 12, "q" * 64, "r" * 65, "s" * 130]
        self._assert_scalar(values, list(values))
        self._assert_scalar(values, [""] * len(values))
        self._assert_scalar([""] * len(values), values)
        batched = jaro_winkler_similarity_batch(values, list(values))
        assert batched.tolist() == [1.0] * len(values)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_masks_built_in_row_chunks(self, chunk, monkeypatch):
        # Chunk sizes that do and do not divide the rows of each bucket.
        monkeypatch.setattr(batch_similarity, "_JARO_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        alphabet = list("abcdé水 ")
        a = random_strings(rng, 300, alphabet, 24) + ["x" * 63 + "ab"] * 3
        b = random_strings(rng, 300, alphabet, 24) + ["y" * 63 + "ba"] * 3
        self._assert_scalar(a, b)

    def test_transposition_heavy_pairs(self, bucketing):
        base = ["martha", "abcdefgh", "abcdefghijklmnopqrstuvwx", "aabbccdd" * 3]
        a, b = [], []
        for value in base:
            a += [value] * 4
            b += [
                value[::-1],
                value[1:] + value[0],
                "".join(  # every adjacent pair swapped
                    value[i ^ 1] if i ^ 1 < len(value) else value[i]
                    for i in range(len(value))
                ),
                value[len(value) // 2 :] + value[: len(value) // 2],
            ]
        self._assert_scalar(a, b)


class TestCombinedEntryPoint:
    def test_matches_individual_kernels(self):
        rng = np.random.default_rng(9)
        a = random_strings(rng, 200, ALPHABETS["unicode"], 24)
        b = random_strings(rng, 200, ALPHABETS["unicode"], 24)
        lev, jw = char_similarities_batch(a, b)
        assert (lev == levenshtein_similarity_batch(a, b)).all()
        assert (jw == jaro_winkler_similarity_batch(a, b)).all()

    def test_scalar_parity_on_short_strings(self):
        pairs = [
            ("", ""), ("", "x"), ("x", ""), ("a", "b"),
            ("ab", "ab"), ("abc", "acb"), ("aaaa", "aa"),
        ]
        a = [left for left, _ in pairs]
        b = [right for _, right in pairs]
        lev, jw = char_similarities_batch(a, b)
        for index, (left, right) in enumerate(pairs):
            assert lev[index] == levenshtein_similarity(left, right)
            assert jw[index] == jaro_winkler_similarity(left, right)

    @pytest.mark.parametrize("seed", range(4))
    def test_heterogeneous_batch(self, seed):
        # One call mixing empty, 1-char and 24-char strings drawn from
        # different alphabets — the shape of the feature extractor's
        # single cross-attribute kernel call.
        rng = np.random.default_rng(seed)
        names = sorted(ALPHABETS)
        values = []
        for _ in range(240):
            alphabet = ALPHABETS[names[int(rng.integers(len(names)))]]
            length = int(rng.choice([0, 1, 24, int(rng.integers(2, 24))]))
            values.append("".join(rng.choice(alphabet, size=length)))
        a, b = values[:120], values[120:]
        a[:3] = ["", "x", "水" * 24]
        b[:3] = ["", "", "水" * 23 + "😀"]
        lev, jw = char_similarities_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert lev[index] == levenshtein_similarity(left, right)
            assert jw[index] == jaro_winkler_similarity(left, right)
        # Each row's result does not depend on what else shares the batch.
        for index in range(0, 120, 17):
            single_lev, single_jw = char_similarities_batch([a[index]], [b[index]])
            assert single_lev[0] == lev[index]
            assert single_jw[0] == jw[index]


class TestBucketEdges:
    def test_rows_straddling_bucket_widths(self, bucketing):
        # Rows run in buckets of max(|a|, |b|) rounded up to a multiple of
        # 8, so lengths on and beside each edge land in different buckets
        # of one call.  Every row must give the scalar bits, and the bits
        # of a call holding that row alone.
        lengths = [0, 1, 7, 8, 9, 16, 17, 24, 25, 40]
        alphabet = "abcdéø水ラ😀 "
        a, b = [], []
        for index, length in enumerate(lengths):
            left = "".join(alphabet[(index + k) % len(alphabet)] for k in range(length))
            a += [left, left, left[::-1]]
            b += [left[: max(length - 1, 0)], left[1:] + "x", "b" * length]
        lev, jw = char_similarities_batch(a, b)
        distances = levenshtein_distance_batch(a, b)
        assert distances.dtype == np.int64
        for index, (left, right) in enumerate(zip(a, b)):
            assert lev[index] == levenshtein_similarity(left, right)
            assert jw[index] == jaro_winkler_similarity(left, right)
            assert distances[index] == levenshtein_distance(left, right)
            single_lev, single_jw = char_similarities_batch([left], [right])
            assert single_lev[0] == lev[index]
            assert single_jw[0] == jw[index]
        assert (levenshtein_similarity_batch(a, b) == lev).all()
        assert (jaro_winkler_similarity_batch(a, b) == jw).all()

    def test_wide_rows_beyond_narrow_dtype(self, bucketing):
        # Widths past 56 run the DP in int32; distances near the width
        # would overflow int8 if the narrow dtype leaked into them.
        rng = np.random.default_rng(3)
        a = random_strings(rng, 60, ALPHABETS["unicode"], 130)
        b = ["q" * len(value) for value in reversed(a)]
        distances = levenshtein_distance_batch(a, b)
        for index, (left, right) in enumerate(zip(a, b)):
            assert distances[index] == levenshtein_distance(left, right)
