"""Tests for the explanation service.

The service's contract mirrors the prediction engine's: **scheduling
never changes results** (a served explanation is bit-identical to the
direct core API) and the observability counters account for every
request (hit, coalesce or compute — never two of them).
"""

import threading

import pytest

from repro.config import ServiceConfig
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest, dual_to_dict
from repro.exceptions import ReproError, ServiceError, ServiceOverloadedError
from repro.explainers.lime_text import LimeConfig
from repro.service.request import ExplainRequest
from repro.service.service import (
    RESULT_FORMAT_VERSION,
    ExplanationService,
    duals_from_result,
)
from repro.service.store import ExplanationStore

SAMPLES = 32


class GatedMatcher:
    """Delegates to a fitted matcher, but blocks until released.

    ``entered`` fires when the first prediction reaches the matcher, so a
    test can hold a computation in-flight while it submits duplicates.
    """

    def __init__(self, matcher):
        self.matcher = matcher
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def predict_proba(self, pairs):
        self.calls += 1
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("gate never released")
        return self.matcher.predict_proba(pairs)

    def predict_one(self, pair):
        return float(self.predict_proba([pair])[0])


class TestBitIdentity:
    def test_service_path_equals_direct_core_api(
        self, beer_matcher, non_match_pair, tmp_path
    ):
        request = ExplainRequest(
            pair=non_match_pair, method="both", samples=SAMPLES, seed=0
        )
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=store) as service:
            payload = service.explain(request)

        direct = LandmarkExplainer(
            beer_matcher,
            lime_config=LimeConfig(n_samples=SAMPLES, seed=0),
            seed=0,
        )
        for generation in ("single", "double"):
            dual = direct.explain(non_match_pair, generation=generation)
            assert payload["duals"][generation] == dual_to_dict(dual)
            assert payload["digests"][generation] == dual_digest(dual)
        store.close()

    def test_store_round_trip_is_bit_identical(
        self, beer_matcher, match_pair, tmp_path
    ):
        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=store) as service:
            cold = service.explain(request)
        store.close()
        # A second service over the same store answers from disk.
        reopened = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=reopened) as service:
            warm = service.explain(request)
            assert warm == cold
            assert service.stats.store_hits == 1
            assert service.stats.computed == 0
        reopened.close()

    def test_duals_from_result(self, beer_matcher, match_pair):
        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        with ExplanationService(beer_matcher) as service:
            payload = service.explain(request)
        duals = duals_from_result(payload)
        assert set(duals) == {"single"}
        assert duals["single"].generation == "single"

    def test_duals_from_result_rejects_unknown_version(self):
        with pytest.raises(ServiceError):
            duals_from_result(
                {"format_version": RESULT_FORMAT_VERSION + 1, "duals": {}}
            )


class TestCoalescing:
    def test_concurrent_duplicates_compute_once(self, beer_matcher, match_pair):
        gated = GatedMatcher(beer_matcher)
        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        with ExplanationService(
            gated, config=ServiceConfig(n_workers=2)
        ) as service:
            first = service.submit(request)
            assert gated.entered.wait(timeout=30)
            # The computation is now held inside the matcher; every
            # duplicate submitted here must coalesce onto `first`.
            duplicates = [service.submit(request) for _ in range(5)]
            assert all(future is first for future in duplicates)
            assert service.stats.coalesced == 5
            gated.release.set()
            results = [f.result(timeout=30) for f in (first, *duplicates)]
        assert service.stats.computed == 1
        assert all(result == results[0] for result in results)

    def test_distinct_requests_do_not_coalesce(
        self, beer_matcher, match_pair, non_match_pair
    ):
        with ExplanationService(beer_matcher) as service:
            a = service.explain(
                ExplainRequest(pair=match_pair, method="single", samples=SAMPLES)
            )
            b = service.explain(
                ExplainRequest(
                    pair=non_match_pair, method="single", samples=SAMPLES
                )
            )
        assert a["key"] != b["key"]
        assert service.stats.computed == 2
        assert service.stats.coalesced == 0


class TestBackpressure:
    def test_full_queue_rejects_nonblocking_submit(
        self, beer_matcher, beer_dataset
    ):
        gated = GatedMatcher(beer_matcher)
        with ExplanationService(
            gated, config=ServiceConfig(n_workers=1, queue_size=1)
        ) as service:
            held = service.submit(
                ExplainRequest(
                    pair=beer_dataset[0], method="single", samples=SAMPLES
                )
            )
            assert gated.entered.wait(timeout=30)
            queued = service.submit(
                ExplainRequest(
                    pair=beer_dataset[1], method="single", samples=SAMPLES
                )
            )
            with pytest.raises(ServiceOverloadedError) as info:
                service.submit(
                    ExplainRequest(
                        pair=beer_dataset[2], method="single", samples=SAMPLES
                    ),
                    block=False,
                )
            assert info.value.retry_after > 0
            assert service.stats.rejected == 1
            gated.release.set()
            held.result(timeout=30)
            queued.result(timeout=30)

    def test_submit_after_close(self, beer_matcher, match_pair):
        service = ExplanationService(beer_matcher)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(
                ExplainRequest(pair=match_pair, samples=SAMPLES)
            )


class TestErrors:
    class ExplodingMatcher:
        def predict_proba(self, pairs):
            raise RuntimeError("matcher crashed")

        def predict_one(self, pair):
            raise RuntimeError("matcher crashed")

    def test_compute_error_reaches_every_waiter(self, match_pair):
        with ExplanationService(self.ExplodingMatcher()) as service:
            future = service.submit(
                ExplainRequest(pair=match_pair, method="single", samples=SAMPLES)
            )
            with pytest.raises(Exception):
                future.result(timeout=30)
        assert service.stats.errors == 1
        assert service.stats.computed == 0

    def test_error_is_not_stored(self, match_pair, tmp_path):
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(self.ExplodingMatcher(), store=store) as service:
            with pytest.raises(Exception):
                service.explain(
                    ExplainRequest(
                        pair=match_pair, method="single", samples=SAMPLES
                    )
                )
        assert len(store) == 0
        store.close()

    def test_failed_key_can_be_resubmitted(self, beer_matcher, match_pair):
        class FlakyOnce:
            def __init__(self, matcher):
                self.matcher = matcher
                self.calls = 0

            def predict_proba(self, pairs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient")
                return self.matcher.predict_proba(pairs)

            def predict_one(self, pair):
                return float(self.predict_proba([pair])[0])

        flaky = FlakyOnce(beer_matcher)
        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        with ExplanationService(
            flaky, config=ServiceConfig(n_workers=1)
        ) as service:
            with pytest.raises(Exception):
                service.explain(request)
            # The failed key left no in-flight residue: retry succeeds.
            payload = service.explain(request)
            assert payload["pair_id"] == match_pair.pair_id


class TestStoreIntegration:
    def test_corrupt_store_entry_recomputed(
        self, beer_matcher, match_pair, tmp_path
    ):
        import sqlite3

        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=store) as service:
            cold = service.explain(request)
            with sqlite3.connect(str(store.path)) as conn:
                conn.execute("UPDATE explanations SET payload = 'garbage'")
                conn.commit()
            recomputed = service.explain(request)
            assert recomputed == cold
            assert store.stats.corruptions == 1
            assert service.stats.computed == 2
        store.close()

    def test_stats_payload_shape(self, beer_matcher, match_pair, tmp_path):
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=store) as service:
            service.explain(
                ExplainRequest(pair=match_pair, method="single", samples=SAMPLES)
            )
            payload = service.stats_payload()
        assert payload["matcher_fingerprint"] == service.fingerprint
        assert payload["service"]["computed"] == 1
        assert payload["store"]["puts"] == 1
        assert payload["engine"]["requested"] > 0
        assert "latency_mean" in payload["service"]
        store.close()

    def test_storeless_service_works(self, beer_matcher, match_pair):
        request = ExplainRequest(
            pair=match_pair, method="single", samples=SAMPLES
        )
        with ExplanationService(beer_matcher) as service:
            first = service.explain(request)
            second = service.explain(request)
        assert first == second
        assert service.stats_payload()["store"] is None
        # Without a store, a completed request is recomputed...
        assert service.stats.computed == 2
        # ...but the shared engine's cache still spares the matcher calls.
        assert service.engine.stats.cache_hits > 0


class TestAccounting:
    def test_every_request_is_accounted_once(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        store = ExplanationStore(tmp_path / "store")
        with ExplanationService(beer_matcher, store=store) as service:
            requests = [
                ExplainRequest(
                    pair=beer_dataset[index % 3],
                    method="single",
                    samples=SAMPLES,
                )
                for index in range(9)
            ]
            for request in requests:
                service.explain(request)
            stats = service.stats
            assert stats.requests == 9
            assert (
                stats.store_hits + stats.coalesced + stats.computed
                == stats.requests
            )
            assert stats.computed == 3  # one per distinct pair
            assert stats.latency_seconds > 0
            assert stats.latency_max <= stats.latency_seconds
        store.close()
