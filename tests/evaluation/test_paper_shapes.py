"""The paper's result shapes, asserted on the ``BENCH`` grid.

The paper reports shapes rather than exact numbers: Landmark Single is
the most reliable surrogate on match records (Table 2), the landmark
surrogates keep the model's attribute ranking (Table 3), and only
double-entity generation finds the tokens that flip a non-match
(Table 4).  These tests run the same :class:`ExperimentRunner` grid
that ``repro-em experiment --preset bench`` prints, over all twelve
datasets, and assert each shape on the mean over datasets.

A change that moves explanation weights (a new sampler, kernel or
surrogate) is judged here: the shapes must survive it, where a
bit-identity test cannot tell a better weight from a broken one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import BENCH
from repro.data.records import MATCH, NON_MATCH
from repro.evaluation.runner import BenchmarkResult, ExperimentRunner


@pytest.fixture(scope="module")
def grid() -> BenchmarkResult:
    return ExperimentRunner(BENCH).run()


def mean_over_datasets(
    result: BenchmarkResult, label: int, method: str, field: str
) -> float:
    return float(
        np.mean(
            [
                getattr(result.datasets[code].get(label, method), field)
                for code in result.codes
            ]
        )
    )


def test_grid_covers_all_twelve_datasets(grid):
    assert len(grid.codes) == 12
    assert grid.ledger().entries == []


class TestTable2TokenReliability:
    """Sec. 4.2.1: remove 25% of the tokens, compare model and surrogate."""

    def test_single_beats_lime_on_match_accuracy(self, grid):
        assert mean_over_datasets(
            grid, MATCH, "single", "token_accuracy"
        ) > mean_over_datasets(grid, MATCH, "lime", "token_accuracy")

    def test_mojito_copy_has_the_worst_non_match_mae(self, grid):
        copy_mae = mean_over_datasets(grid, NON_MATCH, "mojito_copy", "token_mae")
        for method in ("single", "double", "lime"):
            assert copy_mae > mean_over_datasets(
                grid, NON_MATCH, method, "token_mae"
            )

    def test_mojito_copy_non_match_accuracy_below_half(self, grid):
        assert (
            mean_over_datasets(grid, NON_MATCH, "mojito_copy", "token_accuracy")
            < 0.5
        )

    def test_single_stays_reliable_on_non_match(self, grid):
        assert (
            mean_over_datasets(grid, NON_MATCH, "single", "token_accuracy") > 0.7
        )


class TestTable3AttributeAgreement:
    """Sec. 4.2.2: weighted Kendall tau between model and surrogate."""

    def test_single_keeps_the_match_attribute_ranking(self, grid):
        assert mean_over_datasets(grid, MATCH, "single", "kendall") > 0.3

    @pytest.mark.parametrize("method", ["single", "double"])
    def test_landmark_non_match_correlation_is_positive(self, grid, method):
        assert mean_over_datasets(grid, NON_MATCH, method, "kendall") > 0.0


class TestTable4Interest:
    """Sec. 4.3: remove the label-aligned tokens, count class flips."""

    @pytest.mark.parametrize("method", ["single", "double", "lime"])
    def test_match_flips_for_every_token_method(self, grid, method):
        assert mean_over_datasets(grid, MATCH, method, "interest") > 0.5

    def test_double_dominates_non_match_interest(self, grid):
        double = mean_over_datasets(grid, NON_MATCH, "double", "interest")
        assert double > mean_over_datasets(grid, NON_MATCH, "single", "interest")
        assert double > mean_over_datasets(grid, NON_MATCH, "lime", "interest")
        assert (
            double
            > mean_over_datasets(grid, NON_MATCH, "mojito_copy", "interest") + 0.3
        )

    def test_mojito_copy_non_match_interest_near_zero(self, grid):
        assert mean_over_datasets(grid, NON_MATCH, "mojito_copy", "interest") < 0.2


class TestFaithfulness:
    """Deletion-curve gain (an extension): ranked deletion beats random."""

    @pytest.fixture(scope="class")
    def walmart(self):
        config = replace(BENCH, faithfulness=True)
        return ExperimentRunner(config).run(["S-WA"]).datasets["S-WA"]

    def test_single_beats_chance_on_match(self, walmart):
        assert walmart.get(MATCH, "single").faithfulness > 0.0

    def test_copy_ranks_no_better_than_landmark_on_non_match(self, walmart):
        gain = {
            method: walmart.get(NON_MATCH, method).faithfulness
            for method in ("single", "double", "mojito_copy")
        }
        assert gain["mojito_copy"] <= max(gain["single"], gain["double"]) + 0.05
