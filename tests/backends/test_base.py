"""The handshake capabilities a matcher server advertises."""

from __future__ import annotations

import pytest

from repro.backends.base import (
    DEFAULT_MAX_BATCH_SIZE,
    PROTOCOL_VERSION,
    BackendCapabilities,
)
from repro.backends.server import MatcherServer
from repro.core.serialize import matcher_fingerprint
from repro.exceptions import ConfigurationError


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


class TestServerCapabilities:
    def test_capabilities_report_the_matcher(self, beer_matcher):
        caps = MatcherServer(beer_matcher).capabilities
        assert caps.fingerprint == matcher_fingerprint(beer_matcher)
        assert caps.matcher_class == type(beer_matcher).__name__
        assert caps.max_batch_size == DEFAULT_MAX_BATCH_SIZE
