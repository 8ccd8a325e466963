"""The backend protocol surface: capabilities, adapters, normalization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import (
    DEFAULT_MAX_BATCH_SIZE,
    PROTOCOL_VERSION,
    BackendCapabilities,
    BackendMatcher,
    InProcessBackend,
    MatcherBackend,
    as_backend,
)
from repro.core.columnar import pairs_batch
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import BackendError, ConfigurationError


class TestBackendCapabilities:
    def test_round_trips_through_dict(self):
        caps = BackendCapabilities(
            fingerprint="abc123",
            max_batch_size=256,
            matcher_class="LogisticRegressionMatcher",
        )
        assert BackendCapabilities.from_dict(caps.to_dict()) == caps

    def test_requires_fingerprint(self):
        with pytest.raises(ConfigurationError, match="fingerprint"):
            BackendCapabilities(fingerprint="", max_batch_size=1)

    def test_requires_positive_batch(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            BackendCapabilities(fingerprint="x", max_batch_size=0)

    def test_protocol_version_defaults_current(self):
        caps = BackendCapabilities(fingerprint="x", max_batch_size=1)
        assert caps.protocol_version == PROTOCOL_VERSION


class TestInProcessBackend:
    def test_predictions_are_bit_identical(self, beer_matcher, beer_dataset):
        backend = InProcessBackend(beer_matcher)
        pairs = list(beer_dataset)[:20]
        np.testing.assert_array_equal(
            backend.predict_proba_columnar(pairs_batch(pairs)),
            beer_matcher.predict_proba(pairs),
        )

    def test_capabilities_report_the_matcher(self, beer_matcher):
        caps = InProcessBackend(beer_matcher).capabilities()
        assert caps.fingerprint == matcher_fingerprint(beer_matcher)
        assert caps.matcher_class == type(beer_matcher).__name__
        assert caps.max_batch_size == DEFAULT_MAX_BATCH_SIZE

    def test_as_matcher_returns_the_raw_object(self, beer_matcher):
        assert InProcessBackend(beer_matcher).as_matcher() is beer_matcher

    def test_accepts_duck_typed_doubles(self, beer_dataset):
        class Double:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

        backend = InProcessBackend(Double())
        batch = pairs_batch(list(beer_dataset)[:2])
        assert backend.predict_proba_columnar(batch).shape == (2,)

    def test_rejects_non_matchers(self):
        with pytest.raises(ConfigurationError, match="predict_proba"):
            InProcessBackend(object())

    def test_health_is_available(self, beer_matcher):
        assert InProcessBackend(beer_matcher).health()["available"] is True


class TestBackendMatcher:
    def test_fit_refuses(self, beer_matcher):
        proxy = BackendMatcher(InProcessBackend(beer_matcher))
        with pytest.raises(BackendError, match="cannot be trained"):
            proxy.fit(None)

    def test_predictions_delegate(self, beer_matcher, beer_dataset):
        proxy = BackendMatcher(InProcessBackend(beer_matcher))
        pairs = list(beer_dataset)[:8]
        np.testing.assert_array_equal(
            proxy.predict_proba(pairs), beer_matcher.predict_proba(pairs)
        )


class TestAsBackend:
    def test_passes_backends_through(self, beer_matcher):
        backend = InProcessBackend(beer_matcher)
        assert as_backend(backend) is backend

    def test_wraps_matchers(self, beer_matcher):
        backend = as_backend(beer_matcher)
        assert isinstance(backend, MatcherBackend)
        assert backend.as_matcher() is beer_matcher

    def test_rejects_everything_else(self):
        with pytest.raises(ConfigurationError, match="expected a matcher"):
            as_backend(42)
