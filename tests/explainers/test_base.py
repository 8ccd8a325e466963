"""Tests for the Explanation container."""

import numpy as np
import pytest

from repro.exceptions import ExplanationError
from repro.explainers.base import Explanation


def make_explanation(weights=(0.5, -0.2, 0.1)):
    names = tuple(f"tok{i}" for i in range(len(weights)))
    return Explanation(
        feature_names=names,
        weights=np.array(weights),
        intercept=0.3,
        score=0.9,
        model_probability=0.8,
        surrogate_probability=0.75,
        n_samples=64,
    )


class TestConstruction:
    def test_weight_shape_mismatch(self):
        with pytest.raises(ExplanationError):
            Explanation(
                feature_names=("a", "b"),
                weights=np.array([1.0]),
                intercept=0.0,
                score=0.0,
                model_probability=0.0,
                surrogate_probability=0.0,
                n_samples=2,
            )

    def test_len(self):
        assert len(make_explanation()) == 3


class TestAccessors:
    def test_as_dict(self):
        explanation = make_explanation()
        assert explanation.as_dict() == {
            "tok0": 0.5,
            "tok1": -0.2,
            "tok2": pytest.approx(0.1),
        }


class TestTop:
    def test_top_orders_by_magnitude(self):
        top = make_explanation().top(2)
        assert [name for name, _ in top] == ["tok0", "tok1"]

    def test_top_positive_only(self):
        top = make_explanation().top(5, sign="positive")
        assert all(weight > 0 for _, weight in top)
        assert [name for name, _ in top] == ["tok0", "tok2"]

    def test_top_negative_only(self):
        top = make_explanation().top(5, sign="negative")
        assert [name for name, _ in top] == ["tok1"]

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            make_explanation().top(3, sign="sideways")


class TestRender:
    def test_render_mentions_diagnostics(self):
        text = make_explanation().render()
        assert "R²=0.900" in text
        assert "tok0" in text
