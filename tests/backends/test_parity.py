"""Bit-identical explanation weights through a remote backend.

The acceptance bar for the backend layer: for *every* matcher type, the
landmark explanation computed against a :class:`RemoteBackend` must be
bit-identical — not approximately equal — to the one computed against
the in-process matcher.  The transport moves float64 arrays verbatim
(pickle, no re-encoding), the guard consumes no numpy RNG state, and the
client reassembles pipelined chunks positionally, so any drift is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.client import RemoteBackend, RemoteBackendConfig
from repro.backends.server import MatcherServer
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest, dual_to_dict
from repro.explainers.lime_text import LimeConfig
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher
from repro.service.request import ExplainRequest
from repro.service.service import ExplanationService

SAMPLES = 24

MATCHER_TYPES = {
    "logistic": LogisticRegressionMatcher,
    "mlp": MLPMatcher,
    "rules": RuleBasedMatcher,
    "boosted": GradientBoostedStumpsMatcher,
    "embedding": EmbeddingMatcher,
}

CONFIG = RemoteBackendConfig(connect_timeout=5.0, call_timeout=60.0)


def _explain(matcher, pair):
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=SAMPLES, seed=0),
        seed=0,
    )
    return explainer.explain(pair)


@pytest.fixture(scope="module", params=sorted(MATCHER_TYPES))
def fitted(request, beer_dataset):
    return request.param, MATCHER_TYPES[request.param]().fit(beer_dataset)


class TestExplanationParity:
    def test_weights_bit_identical_across_the_wire(self, fitted, match_pair):
        name, matcher = fitted
        local = _explain(matcher, match_pair)
        with MatcherServer(matcher, workers=2) as server:
            backend = RemoteBackend(server.address, config=CONFIG)
            try:
                remote = _explain(backend, match_pair)
            finally:
                backend.close()
        for side in ("left_landmark", "right_landmark"):
            ours = getattr(remote, side).explanation
            theirs = getattr(local, side).explanation
            assert np.array_equal(ours.weights, theirs.weights), name
            assert ours.feature_names == theirs.feature_names, name
        assert dual_to_dict(remote) == dual_to_dict(local), name
        assert dual_digest(remote) == dual_digest(local), name


class TestServiceParity:
    def test_served_result_equals_in_process_service(
        self, beer_matcher, non_match_pair
    ):
        request = ExplainRequest(
            pair=non_match_pair, method="both", samples=SAMPLES, seed=0
        )
        with ExplanationService(beer_matcher) as service:
            local = service.explain(request)
        with MatcherServer(beer_matcher, workers=2) as server:
            backend = RemoteBackend(server.address, config=CONFIG)
            with ExplanationService(backend) as service:
                assert service.fingerprint == backend.capabilities().fingerprint
                remote = service.explain(request)
        assert remote == local
