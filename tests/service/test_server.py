"""Tests for the service front-ends: stdio JSONL, HTTP and precompute."""

import io
import json
import threading
import urllib.request

import pytest

from repro.bulk.source import select_pairs
from repro.bulk.warm import precompute
from repro.service.request import ExplainRequest
from repro.service.server import handle_payload, serve_http, serve_stdio
from repro.service.service import ExplanationService
from repro.service.store import ExplanationStore

SAMPLES = 32
DEFAULTS = {"method": "single", "samples": SAMPLES, "explainer": "lime", "seed": 0}


@pytest.fixture()
def service(beer_matcher):
    with ExplanationService(beer_matcher) as svc:
        yield svc


class TestHandlePayload:
    def test_explain(self, service, beer_dataset):
        response = handle_payload(
            service, {"record": 0, "id": "r1"}, beer_dataset, DEFAULTS
        )
        assert response["ok"]
        assert response["id"] == "r1"
        assert response["result"]["pair_id"] == beer_dataset[0].pair_id

    def test_stats(self, service, beer_dataset):
        response = handle_payload(service, {"op": "stats"}, beer_dataset)
        assert response["ok"]
        assert "service" in response["stats"]

    def test_shutdown(self, service):
        response = handle_payload(service, {"op": "shutdown"})
        assert response["ok"]
        assert response["shutdown"]

    def test_unknown_op(self, service):
        response = handle_payload(service, {"op": "dance"})
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_bad_request_is_a_response_not_an_exception(
        self, service, beer_dataset
    ):
        response = handle_payload(service, {"record": 10_000}, beer_dataset)
        assert not response["ok"]
        assert "out of range" in response["error"]


class TestServeStdio:
    def run_lines(self, service, dataset, *lines: str):
        output = io.StringIO()
        answered = serve_stdio(
            service,
            dataset,
            DEFAULTS,
            input_stream=io.StringIO("\n".join(lines) + "\n"),
            output_stream=output,
        )
        responses = [
            json.loads(line) for line in output.getvalue().splitlines()
        ]
        return answered, responses

    def test_request_response_loop(self, service, beer_dataset):
        answered, responses = self.run_lines(
            service,
            beer_dataset,
            json.dumps({"record": 0}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        )
        assert answered == 3
        assert responses[0]["ok"] and "result" in responses[0]
        assert responses[1]["ok"] and "stats" in responses[1]
        assert responses[2]["shutdown"]

    def test_malformed_line_does_not_kill_the_loop(
        self, service, beer_dataset
    ):
        answered, responses = self.run_lines(
            service,
            beer_dataset,
            "this is not json",
            json.dumps({"record": 0}),
        )
        assert answered == 2
        assert not responses[0]["ok"]
        assert "bad JSON" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_blank_lines_skipped_and_eof_terminates(
        self, service, beer_dataset
    ):
        answered, responses = self.run_lines(
            service, beer_dataset, "", json.dumps({"record": 1}), ""
        )
        assert answered == 1
        assert responses[0]["ok"]


class TestServeHTTP:
    @pytest.fixture()
    def http_server(self, service, beer_dataset):
        server = serve_http(service, beer_dataset, DEFAULTS, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def _get(self, url: str) -> dict:
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def test_healthz(self, http_server):
        payload = self._get(f"{http_server}/healthz")
        assert payload["ok"] is True
        assert payload["queue_depth"] == 0
        assert "degraded" not in payload

    def test_explain_and_stats(self, http_server, beer_dataset):
        body = json.dumps({"record": 0}).encode("utf-8")
        request = urllib.request.Request(
            f"{http_server}/explain", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = json.loads(response.read())
        assert payload["ok"]
        assert payload["result"]["pair_id"] == beer_dataset[0].pair_id
        stats = self._get(f"{http_server}/stats")
        assert stats["stats"]["service"]["computed"] == 1

    def test_unknown_path_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(f"{http_server}/nope")
        assert info.value.code == 404

    def test_bad_request_400(self, http_server):
        body = json.dumps({"record": 10_000}).encode("utf-8")
        request = urllib.request.Request(
            f"{http_server}/explain", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400


class TestPrecompute:
    def warm(self, matcher, dataset, store_dir, resume=False, **overrides):
        options = dict(
            per_label=2, method="single", samples=SAMPLES, seed=0
        )
        options.update(overrides)
        store = ExplanationStore(store_dir)
        with ExplanationService(matcher, store=store) as service:
            report = precompute(service, dataset, resume=resume, **options)
        stats = service.stats
        store.close()
        return report, stats

    def test_cold_run_warms_every_sampled_pair(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        report, stats = self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        assert report.n_pairs == 4  # per_label=2, two labels
        assert report.n_submitted == 4
        assert report.n_skipped == 0
        assert report.n_failed == 0
        assert stats.computed == 4

    def test_resume_skips_warm_keys(self, beer_matcher, beer_dataset, tmp_path):
        self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        report, stats = self.warm(
            beer_matcher, beer_dataset, tmp_path / "s", resume=True
        )
        assert report.n_skipped == 4
        assert report.n_submitted == 0
        assert stats.requests == 0  # skipped keys never enter the service

    def test_resume_recomputes_a_lost_store_entry(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        # The store lost an entry (e.g. eviction) since the last run.
        store = ExplanationStore(tmp_path / "s")
        victim = store.keys()[0]
        with __import__("sqlite3").connect(str(store.path)) as conn:
            conn.execute("DELETE FROM explanations WHERE key = ?", (victim,))
            conn.commit()
        store.close()
        report, _ = self.warm(
            beer_matcher, beer_dataset, tmp_path / "s", resume=True
        )
        assert report.n_submitted == 1
        assert report.n_skipped == 3

    def test_resume_under_other_samples_submits_every_new_key(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        report, stats = self.warm(
            beer_matcher,
            beer_dataset,
            tmp_path / "s",
            resume=True,
            samples=SAMPLES * 2,
        )
        assert report.n_submitted == 4
        assert report.n_skipped == 0
        assert stats.computed == 4

    def test_resume_skips_a_key_warmed_by_serving(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        served = select_pairs(beer_dataset, 2, seed=0)[0]
        store = ExplanationStore(tmp_path / "s")
        with ExplanationService(beer_matcher, store=store) as service:
            service.explain(
                ExplainRequest(pair=served, method="single", samples=SAMPLES)
            )
        store.close()
        report, stats = self.warm(
            beer_matcher, beer_dataset, tmp_path / "s", resume=True
        )
        assert report.n_skipped == 1
        assert report.n_submitted == 3
        assert stats.computed == 3

    def test_without_resume_journal_is_rewritten(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        report, stats = self.warm(beer_matcher, beer_dataset, tmp_path / "s")
        # Nothing is skipped, but the store answers every warm key.
        assert report.n_submitted == 4
        assert stats.store_hits == 4
        assert stats.computed == 0

    def test_warming_uses_background_priority(self, beer_dataset):
        request = ExplainRequest(pair=beer_dataset[0], priority=100)
        interactive = ExplainRequest(pair=beer_dataset[0])
        assert request.priority > interactive.priority

    def test_failed_pairs_are_isolated(self, beer_dataset, tmp_path):
        class FlakyMatcher:
            def __init__(self):
                self.calls = 0

            def predict_proba(self, pairs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient outage")
                import numpy as np

                return np.full(len(pairs), 0.5)

            def predict_one(self, pair):
                return 0.5

        report, stats = self.warm(FlakyMatcher(), beer_dataset, tmp_path / "s")
        assert report.n_failed >= 1
        assert report.n_failed + (stats.computed) == report.n_submitted
        assert len(report.failed_pair_ids) == report.n_failed
