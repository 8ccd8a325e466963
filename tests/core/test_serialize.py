"""Tests for dual-explanation JSON serialization."""

import numpy as np
import pytest

from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import (
    dual_from_dict,
    dual_to_dict,
    load_explanation,
    save_explanation,
)
from repro.exceptions import ExplanationError
from repro.explainers.lime_text import LimeConfig


@pytest.fixture(scope="module")
def dual(beer_matcher, non_match_pair):
    explainer = LandmarkExplainer(
        beer_matcher, lime_config=LimeConfig(n_samples=48, seed=0), seed=0
    )
    return explainer.explain(non_match_pair, "double")


class TestRoundTrip:
    def test_weights_survive(self, dual):
        restored = dual_from_dict(dual_to_dict(dual))
        assert np.array_equal(
            restored.left_landmark.explanation.weights,
            dual.left_landmark.explanation.weights,
        )
        assert np.array_equal(
            restored.right_landmark.explanation.weights,
            dual.right_landmark.explanation.weights,
        )

    def test_pair_survives(self, dual):
        restored = dual_from_dict(dual_to_dict(dual))
        assert dict(restored.pair.left) == dict(dual.pair.left)
        assert restored.pair.label == dual.pair.label
        assert restored.pair.pair_id == dual.pair.pair_id

    def test_injection_flags_survive(self, dual):
        restored = dual_from_dict(dual_to_dict(dual))
        assert (
            restored.left_landmark.instance.injected
            == dual.left_landmark.instance.injected
        )
        assert restored.generation == "double"

    def test_combined_view_identical(self, dual):
        restored = dual_from_dict(dual_to_dict(dual))
        original_weights = {e.key: e.weight for e in dual.combined().entries}
        restored_weights = {e.key: e.weight for e in restored.combined().entries}
        assert restored_weights == original_weights

    def test_file_round_trip(self, dual, tmp_path):
        path = tmp_path / "explanation.json"
        save_explanation(dual, path)
        restored = load_explanation(path)
        assert restored.left_landmark.explanation.score == pytest.approx(
            dual.left_landmark.explanation.score
        )

    def test_restored_explanation_still_renders(self, dual):
        restored = dual_from_dict(dual_to_dict(dual))
        assert "landmark=left" in restored.render()

    def test_restored_removal_still_works(self, dual, beer_matcher):
        restored = dual_from_dict(dual_to_dict(dual))
        reduced = restored.left_landmark.apply_removal("negative")
        probability = beer_matcher.predict_one(reduced)
        assert 0.0 <= probability <= 1.0


class TestVersioning:
    def test_unknown_version_rejected(self, dual):
        payload = dual_to_dict(dual)
        payload["format_version"] = 99
        with pytest.raises(ExplanationError, match="format version"):
            dual_from_dict(payload)

    def test_payload_is_json_serializable(self, dual):
        import json

        text = json.dumps(dual_to_dict(dual))
        assert "left_landmark" in text


class TestMatcherArtifacts:
    def test_save_load_round_trip(self, beer_matcher, match_pair, tmp_path):
        from repro.core.serialize import load_matcher, save_matcher

        path = tmp_path / "matcher.pkl"
        save_matcher(beer_matcher, path)
        restored = load_matcher(path)
        assert restored.predict_one(match_pair) == beer_matcher.predict_one(
            match_pair
        )

    def test_fingerprint_stable_across_retrain(self, beer_dataset):
        from repro.core.serialize import matcher_fingerprint
        from repro.matchers.logistic import LogisticRegressionMatcher

        a = LogisticRegressionMatcher().fit(beer_dataset)
        b = LogisticRegressionMatcher().fit(beer_dataset)
        assert matcher_fingerprint(a) == matcher_fingerprint(b)

    def test_fingerprint_changes_with_training_data(self, beer_dataset):
        from repro.core.serialize import matcher_fingerprint
        from repro.data.synthetic.magellan import load_dataset
        from repro.matchers.logistic import LogisticRegressionMatcher

        a = LogisticRegressionMatcher().fit(beer_dataset)
        other = load_dataset("S-BR", seed=1, size_cap=300)
        b = LogisticRegressionMatcher().fit(other)
        assert matcher_fingerprint(a) != matcher_fingerprint(b)

    def test_save_creates_parent_directories(self, beer_matcher, tmp_path):
        from repro.core.serialize import save_matcher

        path = tmp_path / "deep" / "nested" / "matcher.pkl"
        fingerprint = save_matcher(beer_matcher, path)
        assert path.exists()
        assert len(fingerprint) == 64

    def test_a_remote_backend_is_not_saved(self, tmp_path):
        from repro.backends.client import RemoteBackend
        from repro.core.serialize import save_matcher
        from repro.exceptions import ArtifactError

        backend = RemoteBackend(("127.0.0.1", 9))
        with pytest.raises(ArtifactError, match="remote backend"):
            save_matcher(backend, tmp_path / "matcher.pkl")
        assert not (tmp_path / "matcher.pkl").exists()

    def test_missing_artifact(self, tmp_path):
        from repro.core.serialize import load_matcher
        from repro.exceptions import ArtifactError

        with pytest.raises(ArtifactError, match="no matcher artifact"):
            load_matcher(tmp_path / "absent.pkl")

    def test_corrupt_artifact(self, beer_matcher, tmp_path):
        from repro.core.serialize import load_matcher, save_matcher
        from repro.exceptions import ArtifactError

        path = tmp_path / "matcher.pkl"
        save_matcher(beer_matcher, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ArtifactError):
            load_matcher(path)

    def test_tampered_state_fails_fingerprint_check(
        self, beer_matcher, tmp_path
    ):
        import pickle

        from repro.core.serialize import load_matcher, save_matcher
        from repro.exceptions import ArtifactError

        path = tmp_path / "matcher.pkl"
        save_matcher(beer_matcher, path)
        envelope = pickle.loads(path.read_bytes())
        envelope["matcher"].coef_ = envelope["matcher"].coef_ + 1.0
        path.write_bytes(pickle.dumps(envelope, protocol=4))
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_matcher(path)

    def test_unsupported_format_version(self, beer_matcher, tmp_path):
        import pickle

        from repro.core.serialize import load_matcher, save_matcher
        from repro.exceptions import ArtifactError

        path = tmp_path / "matcher.pkl"
        save_matcher(beer_matcher, path)
        envelope = pickle.loads(path.read_bytes())
        envelope["format_version"] = 99
        path.write_bytes(pickle.dumps(envelope, protocol=4))
        with pytest.raises(ArtifactError, match="version"):
            load_matcher(path)

    def test_tampered_state_raises_the_mismatch_subclass(
        self, beer_matcher, tmp_path
    ):
        import pickle

        from repro.core.serialize import load_matcher, save_matcher
        from repro.exceptions import ArtifactMismatchError

        path = tmp_path / "matcher.pkl"
        save_matcher(beer_matcher, path)
        envelope = pickle.loads(path.read_bytes())
        envelope["matcher"].coef_ = envelope["matcher"].coef_ + 1.0
        path.write_bytes(pickle.dumps(envelope, protocol=4))
        # The sharper subclass, so serving paths can abort on exactly the
        # stale/foreign-weights case without catching broad ArtifactError.
        with pytest.raises(ArtifactMismatchError):
            load_matcher(path)

    def test_expected_fingerprint_pins_the_model(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        from repro.core.serialize import (
            load_matcher,
            matcher_fingerprint,
            save_matcher,
        )
        from repro.exceptions import ArtifactMismatchError
        from repro.matchers.neural import MLPMatcher

        path = tmp_path / "matcher.pkl"
        fingerprint = save_matcher(beer_matcher, path)
        loaded = load_matcher(path, expected_fingerprint=fingerprint)
        assert matcher_fingerprint(loaded) == fingerprint
        # A healthy artifact of the *wrong* model must be refused too:
        # it is exactly the stale-weights deployment mistake.
        other = matcher_fingerprint(MLPMatcher().fit(beer_dataset))
        with pytest.raises(ArtifactMismatchError, match="stale weights"):
            load_matcher(path, expected_fingerprint=other)
