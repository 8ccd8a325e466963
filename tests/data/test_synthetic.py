"""Tests for the synthetic benchmark: corruption, generator, dirty, magellan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import MATCH, NON_MATCH
from repro.data.synthetic.corruption import (
    CorruptionConfig,
    corrupt_entity,
    corrupt_value,
)
from repro.data.synthetic.dirty import make_dirty
from repro.data.synthetic.generator import SyntheticEMGenerator
from repro.data.synthetic.magellan import (
    DATASET_CODES,
    DATASET_SPECS,
    load_benchmark,
    load_dataset,
    table1_rows,
)
from repro.data.synthetic.vocabularies import ALL_FACTORIES, BEER_FACTORY
from repro.exceptions import DatasetError
from repro.text.similarity import jaccard_similarity


class TestCorruption:
    def test_empty_value_stays_empty(self):
        rng = np.random.default_rng(0)
        assert corrupt_value("name", "", rng, CorruptionConfig()) == ""

    def test_never_empties_a_value(self):
        rng = np.random.default_rng(0)
        config = CorruptionConfig(token_drop=0.95)
        for _ in range(50):
            assert corrupt_value("name", "alpha beta gamma", rng, config) != ""

    def test_numeric_drift_preserves_decimals(self):
        rng = np.random.default_rng(0)
        config = CorruptionConfig(numeric_drift=1.0, numeric_relative_sigma=0.05)
        drifted = corrupt_value("price", "849.99", rng, config)
        assert "." in drifted
        assert len(drifted.split(".")[1]) == 2

    def test_numeric_attribute_not_tokenized(self):
        rng = np.random.default_rng(0)
        config = CorruptionConfig(numeric_drift=0.0)
        assert corrupt_value("price", "849.99", rng, config) == "849.99"

    def test_corrupt_entity_covers_all_attributes(self):
        rng = np.random.default_rng(0)
        entity = {"name": "golden dragon palace", "city": "boston"}
        corrupted = corrupt_entity(entity, rng)
        assert set(corrupted) == set(entity)

    def test_deterministic_given_rng_state(self):
        entity = {"name": "alpha beta gamma delta"}
        a = corrupt_entity(entity, np.random.default_rng(5))
        b = corrupt_entity(entity, np.random.default_rng(5))
        assert a == b

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_corruption_invariants(self, seed):
        # True invariants: a non-empty value stays non-empty and token
        # drops/edits never *add* tokens.  (Zero token overlap is possible
        # in the extreme — drop all but one word, then typo it — so overlap
        # is checked on average in test_match_pairs_share_identity_tokens.)
        rng = np.random.default_rng(seed)
        value = "golden dragon palace kitchen garden"
        corrupted = corrupt_value("name", value, rng, CorruptionConfig())
        assert corrupted != ""
        assert len(corrupted.split()) <= len(value.split())


class TestGenerator:
    def test_match_rate_respected(self):
        generator = SyntheticEMGenerator(BEER_FACTORY, match_rate=0.2, seed=0)
        dataset = generator.generate(200)
        assert dataset.match_count == 40

    def test_match_pairs_share_identity_tokens(self):
        generator = SyntheticEMGenerator(BEER_FACTORY, match_rate=0.5, seed=0)
        dataset = generator.generate(100)
        overlaps = []
        for pair in dataset.by_label(MATCH):
            left_tokens = " ".join(pair.left.values()).split()
            right_tokens = " ".join(pair.right.values()).split()
            overlaps.append(jaccard_similarity(left_tokens, right_tokens))
        assert np.mean(overlaps) > 0.4

    def test_matches_overlap_more_than_non_matches(self):
        generator = SyntheticEMGenerator(BEER_FACTORY, match_rate=0.5, seed=0)
        dataset = generator.generate(200)

        def mean_overlap(label):
            values = []
            for pair in dataset.by_label(label):
                values.append(
                    jaccard_similarity(
                        " ".join(pair.left.values()).split(),
                        " ".join(pair.right.values()).split(),
                    )
                )
            return np.mean(values)

        assert mean_overlap(MATCH) > mean_overlap(NON_MATCH) + 0.15

    def test_hard_negatives_share_tokens(self):
        hard = SyntheticEMGenerator(
            BEER_FACTORY, match_rate=0.1, hard_negative_fraction=1.0, seed=0
        ).generate(100)
        easy = SyntheticEMGenerator(
            BEER_FACTORY, match_rate=0.1, hard_negative_fraction=0.0, seed=0
        ).generate(100)

        def mean_overlap(dataset):
            values = []
            for pair in dataset.by_label(NON_MATCH):
                values.append(
                    jaccard_similarity(
                        " ".join(pair.left.values()).split(),
                        " ".join(pair.right.values()).split(),
                    )
                )
            return np.mean(values)

        assert mean_overlap(hard) > mean_overlap(easy)

    def test_deterministic(self):
        a = SyntheticEMGenerator(BEER_FACTORY, seed=3).generate(50)
        b = SyntheticEMGenerator(BEER_FACTORY, seed=3).generate(50)
        for pair_a, pair_b in zip(a, b):
            assert dict(pair_a.left) == dict(pair_b.left)
            assert pair_a.label == pair_b.label

    def test_size_validation(self):
        with pytest.raises(DatasetError):
            SyntheticEMGenerator(BEER_FACTORY).generate(1)

    def test_match_rate_validation(self):
        with pytest.raises(DatasetError):
            SyntheticEMGenerator(BEER_FACTORY, match_rate=0.0)

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.name)
    def test_every_factory_generates_schema_complete_entities(self, factory):
        generator = SyntheticEMGenerator(factory, match_rate=0.3, seed=0)
        dataset = generator.generate(30)
        for pair in dataset:
            assert set(pair.left) == set(factory.attributes)
            assert set(pair.right) == set(factory.attributes)

    @pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.name)
    def test_similar_entities_differ_from_seed(self, factory):
        rng = np.random.default_rng(0)
        for _ in range(10):
            seed_entity = factory.make(rng)
            similar = factory.make_similar(rng, seed_entity)
            assert similar != seed_entity


class TestDirty:
    def test_moves_values_into_anchor(self):
        dataset = SyntheticEMGenerator(BEER_FACTORY, seed=0).generate(100)
        dirty = make_dirty(dataset, move_probability=1.0, seed=0)
        pair = dirty[0]
        anchor = dataset.schema.attributes[0]
        for attribute in dataset.schema.attributes:
            if attribute != anchor:
                assert pair.left[attribute] == ""
        # everything landed in the anchor
        original = dataset[0]
        for attribute in dataset.schema.attributes:
            for word in original.left[attribute].split():
                assert word in pair.left[anchor]

    def test_zero_probability_is_identity(self):
        dataset = SyntheticEMGenerator(BEER_FACTORY, seed=0).generate(50)
        dirty = make_dirty(dataset, move_probability=0.0)
        for original, dirtied in zip(dataset, dirty):
            assert dict(original.left) == dict(dirtied.left)

    def test_labels_unchanged(self):
        dataset = SyntheticEMGenerator(BEER_FACTORY, seed=0).generate(50)
        dirty = make_dirty(dataset, seed=1)
        assert np.array_equal(dataset.labels, dirty.labels)

    def test_bad_anchor_rejected(self):
        dataset = SyntheticEMGenerator(BEER_FACTORY, seed=0).generate(10)
        with pytest.raises(ValueError):
            make_dirty(dataset, anchor="nope")

    def test_bad_probability_rejected(self):
        dataset = SyntheticEMGenerator(BEER_FACTORY, seed=0).generate(10)
        with pytest.raises(ValueError):
            make_dirty(dataset, move_probability=1.5)


class TestMagellan:
    def test_twelve_datasets(self):
        assert len(DATASET_CODES) == 12

    def test_specs_match_table1(self):
        spec = DATASET_SPECS["S-WA"]
        assert spec.size == 10242
        assert spec.match_percent == 9.39
        assert spec.full_name == "Walmart-Amazon"

    def test_load_dataset_size_cap(self):
        dataset = load_dataset("S-DG", size_cap=150)
        assert len(dataset) == 150

    @pytest.mark.parametrize("code", DATASET_CODES)
    def test_match_rate_close_to_spec(self, code):
        # Table 1 at the BENCH size cap.
        spec = DATASET_SPECS[code]
        dataset = load_dataset(code, size_cap=500)
        assert len(dataset) == min(spec.size, 500)
        assert abs(dataset.match_rate - spec.match_rate) < 0.02

    def test_small_datasets_have_exact_size(self):
        dataset = load_dataset("S-BR")
        assert len(dataset) == 450

    def test_dirty_variant_is_dirty(self):
        clean = load_dataset("S-IA", size_cap=200)
        dirty = load_dataset("D-IA", size_cap=200)
        empty_clean = sum(
            1 for p in clean for v in list(p.left.values()) if not v
        )
        empty_dirty = sum(
            1 for p in dirty for v in list(p.left.values()) if not v
        )
        assert empty_dirty > empty_clean

    def test_unknown_code_rejected(self):
        with pytest.raises(DatasetError, match="unknown dataset code"):
            load_dataset("S-XX")

    def test_deterministic_across_loads(self):
        a = load_dataset("S-FZ", seed=2, size_cap=80)
        b = load_dataset("S-FZ", seed=2, size_cap=80)
        assert dict(a[0].left) == dict(b[0].left)

    def test_load_benchmark_subset(self):
        datasets = load_benchmark(size_cap=60, codes=("S-BR", "D-IA"))
        assert set(datasets) == {"S-BR", "D-IA"}

    def test_table1_rows_nominal(self):
        rows = table1_rows()
        assert len(rows) == 12
        assert rows[0]["code"] == "S-BR"
        assert rows[0]["size"] == 450

    def test_table1_rows_measured(self):
        datasets = load_benchmark(size_cap=60, codes=("S-BR",))
        rows = table1_rows(datasets)
        row = next(r for r in rows if r["code"] == "S-BR")
        assert row["measured_size"] == 60
