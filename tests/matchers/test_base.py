"""The scoring helper every caller of a matcher goes through."""

from __future__ import annotations

import numpy as np

from repro.core.columnar import pairs_batch
from repro.matchers.base import columnar_scorer


class TestColumnarScorer:
    def test_predictions_are_bit_identical(self, beer_matcher, beer_dataset):
        pairs = list(beer_dataset)[:20]
        np.testing.assert_array_equal(
            columnar_scorer(beer_matcher)(pairs_batch(pairs)),
            beer_matcher.predict_proba(pairs),
        )

    def test_accepts_duck_typed_doubles(self, beer_dataset):
        class Double:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

        batch = pairs_batch(list(beer_dataset)[:2])
        assert columnar_scorer(Double())(batch).shape == (2,)
