"""End-to-end observability: instruments and spans across real layers.

Covers the cross-layer contracts no unit test can:

* an N-thread hammer through a shared :class:`PredictionEngine` keeps the
  registry counters **exact** (the accounting invariant holds under any
  interleaving) and fills the stage histograms;
* a traced experiment run produces one nested span tree per dataset —
  runner (``dataset`` → ``cell``) → pipeline (``landmark`` →
  ``generation`` / ``reconstruction`` / ``prediction`` /
  ``surrogate_fit``) → guard (``guard_call``);
* the serving endpoints expose the registry (``GET /metrics`` Prometheus
  text, ``{"op": "metrics"}`` JSON) and ``GET /healthz`` degrades to 503
  while the matcher circuit breaker is open;
* observability never changes results: surrogate weights are
  bit-identical with tracing + metrics on or off.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.guard import GuardConfig
from repro.core.landmark import LandmarkExplainer
from repro.evaluation.runner import ExperimentRunner
from repro.explainers.lime_text import LimeConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace
from repro.service.server import handle_payload, serve_http
from repro.service.service import ExplanationService
from repro.testing.faults import FlakyMatcher


class TestEngineHammer:
    def test_counters_exact_under_threads(self, beer_matcher, beer_dataset):
        registry = MetricsRegistry()
        engine = PredictionEngine(
            beer_matcher, EngineConfig(batch_size=16), metrics=registry
        )
        n_threads, per_thread = 6, 40
        pairs = list(beer_dataset.pairs[: n_threads * per_thread])
        barrier = threading.Barrier(n_threads)

        def worker(index: int) -> None:
            barrier.wait()
            chunk = pairs[index * per_thread : (index + 1) * per_thread]
            for pair in chunk:
                engine.predict_one(pair)
            engine.predict_pairs(chunk)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = engine.stats
        # Exact: every thread requested per_thread singles + one batch.
        assert stats.requested == 2 * n_threads * per_thread
        # The accounting invariant holds under any interleaving.
        assert stats.calls_issued + stats.calls_saved == stats.requested
        assert stats.calls_saved == stats.dedup_saved + stats.cache_hits
        # The second pass re-requests every pair: at least half the
        # requests were answered without a matcher call.
        assert stats.cache_hits >= n_threads * per_thread
        # The same numbers are live in the registry's Prometheus families.
        families = {f["name"]: f for f in registry.collect()}
        (labels, value) = families["repro_engine_requests_total"]["samples"][0]
        assert labels["component"] == "engine"
        assert value == stats.requested
        predict = [
            value
            for labels, value in families["repro_stage_seconds"]["samples"]
            if labels.get("stage") == "predict"
        ]
        assert predict and predict[0]["count"] == stats.batches >= 1

    def test_guard_counters_land_in_the_registry(
        self, beer_matcher, beer_dataset
    ):
        registry = MetricsRegistry()
        flaky = FlakyMatcher(beer_matcher, fail_rate=0.0, fail_first=2)
        engine = PredictionEngine(
            flaky,
            EngineConfig(guard=GuardConfig(max_retries=2, trip_after=100)),
            metrics=registry,
        )
        engine.predict_pairs(beer_dataset.pairs[:4])
        stats = engine.stats
        assert stats.guard_retries == 2
        assert stats.guard_failures == 2
        families = {f["name"]: f for f in registry.collect()}
        assert families["repro_guard_retries_total"]["samples"][0][1] == 2
        assert families["repro_guard_failures_total"]["samples"][0][1] == 2


class TestRunnerTrace:
    @pytest.fixture(scope="class")
    def traced_run(self):
        config = ExperimentConfig(
            name="obs", per_label=2, lime_samples=16, size_cap=120,
            methods=("single",),
            engine=EngineConfig(guard=GuardConfig(max_retries=1)),
        )
        registry = MetricsRegistry()
        trace.enable()
        trace.clear()
        try:
            result = ExperimentRunner(config, metrics=registry).run_dataset(
                "S-BR"
            )
            roots = trace.roots()
        finally:
            trace.disable()
            trace.clear()
        return result, registry, roots

    def test_span_tree_covers_runner_engine_guard(self, traced_run):
        _, _, roots = traced_run
        datasets = [span for span in roots if span.name == "dataset"]
        assert len(datasets) == 1
        dataset_span = datasets[0]
        cells = [c for c in dataset_span.children if c.name == "cell"]
        assert len(cells) == 2  # (match, non_match) x ("single",)
        for stage in (
            "landmark", "generation", "reconstruction",
            "prediction", "surrogate_fit", "guard_call",
        ):
            assert dataset_span.find(stage), f"missing {stage} under dataset"
        # Nesting is real: generation sits under landmark, guard under
        # prediction, all inside a cell.
        landmark = cells[0].find("landmark")[0]
        assert landmark.find("generation")
        prediction = landmark.find("prediction")[0]
        assert prediction.find("guard_call")
        assert landmark.find("surrogate_fit")

    def test_runner_counters_match_the_grid(self, traced_run):
        result, registry, _ = traced_run
        families = {f["name"]: f for f in registry.collect()}
        cells = families["repro_runner_cells_total"]["samples"][0][1]
        assert cells == 2
        records = families["repro_runner_records_total"]["samples"][0][1]
        assert records == sum(
            metrics.n_records for metrics in result.metrics.values()
        )
        cell_hist = [
            value
            for labels, value in families["repro_stage_seconds"]["samples"]
            if labels.get("component") == "runner"
        ]
        assert cell_hist and cell_hist[0]["count"] == 2


class TestServingEndpoints:
    @pytest.fixture()
    def service(self, beer_matcher):
        with ExplanationService(beer_matcher) as svc:
            yield svc

    @pytest.fixture()
    def http_server(self, service, beer_dataset):
        defaults = {
            "method": "single", "samples": 24, "explainer": "lime", "seed": 0,
        }
        server = serve_http(service, beer_dataset, defaults, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield service, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def test_metrics_endpoint_serves_prometheus_text(
        self, http_server, beer_dataset
    ):
        service, url = http_server
        body = json.dumps({"record": 0, "samples": 24}).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/explain", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=60):
            pass
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_engine_requests_total" in text
        assert "repro_service_request_seconds_bucket" in text

    def test_metrics_op_returns_json_snapshot(self, service):
        response = handle_payload(service, {"op": "metrics", "id": "m1"})
        assert response["ok"] and response["id"] == "m1"
        names = {f["name"] for f in response["metrics"]["metrics"]}
        assert "repro_service_requests_total" in names
        assert "repro_engine_requests_total" in names

    def test_healthz_degrades_while_breaker_is_open(self, http_server):
        service, url = http_server
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as response:
            healthy = json.loads(response.read())
        assert healthy["ok"] is True and "degraded" not in healthy
        service.engine.guard._state = "open"
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"{url}/healthz", timeout=30)
            assert info.value.code == 503
            degraded = json.loads(info.value.read())
            assert degraded["ok"] is False
            assert degraded["degraded"] == "breaker_open"
        finally:
            service.engine.guard._state = "closed"


class TestResultsAreBitIdentical:
    def test_weights_identical_with_obs_on_and_off(
        self, beer_matcher, non_match_pair
    ):
        def weights(registry_enabled: bool, tracing: bool) -> np.ndarray:
            registry = MetricsRegistry(enabled=registry_enabled)
            if tracing:
                trace.enable()
                trace.clear()
            try:
                explainer = LandmarkExplainer(
                    beer_matcher,
                    lime_config=LimeConfig(n_samples=32, seed=0),
                    seed=0,
                    engine=PredictionEngine(beer_matcher, metrics=registry),
                )
                dual = explainer.explain(non_match_pair)
            finally:
                if tracing:
                    trace.disable()
                    trace.clear()
            return np.concatenate(
                [
                    dual.left_landmark.explanation.weights,
                    dual.right_landmark.explanation.weights,
                ]
            )

        baseline = weights(registry_enabled=False, tracing=False)
        with_metrics = weights(registry_enabled=True, tracing=False)
        with_everything = weights(registry_enabled=True, tracing=True)
        assert np.array_equal(baseline, with_metrics)
        assert np.array_equal(baseline, with_everything)
