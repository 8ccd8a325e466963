"""Tests for :mod:`repro.bulk.job` — the chunked bulk runner.

The load-bearing guarantees: the streaming fold matches
:func:`repro.core.summarize.summarize_explanations` bit-for-bit, a
kill-at-chunk-K resume reproduces the uninterrupted report byte-for-byte,
and a warm store turns the whole job into dedup hits.
"""

import json

import pytest

from repro.backends.client import RemoteBackend
from repro.backends.server import MatcherServer
from repro.bulk import BULK_JOURNAL, BulkJob, BulkJobSpec, DatasetSource
from repro.core.serialize import matcher_fingerprint
from repro.core.summarize import summarize_explanations
from repro.evaluation.ledger import KIND_SKIPPED
from repro.evaluation.persistence import read_journal
from repro.exceptions import CheckpointError, ConfigurationError
from repro.service.service import build_landmark_explainer
from repro.service.store import ExplanationStore


SPEC = BulkJobSpec(method="both", samples=8, explainer="lime", seed=0,
                   chunk_size=2)


def make_job(beer_dataset, beer_matcher, tmp_path, name, spec=SPEC, **kwargs):
    source = DatasetSource(beer_dataset, per_label=2, seed=0)
    store = ExplanationStore(tmp_path / f"{name}-store")
    run_dir = tmp_path / f"{name}-run"
    run_dir.mkdir(exist_ok=True)
    return BulkJob(
        beer_matcher, source, spec=spec, store=store, run_dir=run_dir,
        **kwargs,
    )


def reference_summary(job):
    """The in-memory fold the streaming job must reproduce exactly."""
    duals = []
    for pair in job.source.pairs():
        request = job.spec.request_for(pair)
        explainer = build_landmark_explainer(job.matcher, job.engine, request)
        for generation in request.generations():
            duals.append(explainer.explain(pair, generation=generation))
    return summarize_explanations(duals)


class TestBulkJobRun:
    def test_counts_and_streaming_fold_matches_core_summarize(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "base")
        report = job.run()
        assert report.n_pairs == 4
        assert report.n_chunks == 2
        assert report.n_computed == 4
        assert report.n_dedup_hits == 0
        assert report.n_failed == 0
        # Bit-exact, not approximate: same fold order, and JSON float
        # round-trips are lossless.
        expected = reference_summary(job)
        assert report.summary.to_payload() == expected.to_payload()
        assert "bulk job: 4 pairs in 2 chunks" in report.render(5)

    def test_a_remote_backend_mints_the_local_models_keys(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        # The client is identified by the fingerprint its server
        # advertised, so a job over it hits what a local job stored.
        local = make_job(beer_dataset, beer_matcher, tmp_path, "shared")
        local.run()
        local.store.close()
        with MatcherServer(beer_matcher) as server:
            backend = RemoteBackend(server.address)
            try:
                remote = make_job(beer_dataset, backend, tmp_path, "shared")
                report = remote.run()
                remote.store.close()
            finally:
                backend.close()
        assert remote.fingerprint == matcher_fingerprint(beer_matcher)
        assert report.n_dedup_hits == 4
        assert report.n_computed == 0

    def test_runs_without_a_store(self, beer_dataset, beer_matcher, tmp_path):
        source = DatasetSource(beer_dataset, per_label=2, seed=0)
        report = BulkJob(beer_matcher, source, spec=SPEC).run()
        assert report.n_computed == 4
        assert report.n_dedup_hits == 0

    def test_journal_records_cumulative_summaries(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "journal")
        report = job.run()
        events = read_journal(job.run_dir / BULK_JOURNAL)
        assert events[0]["event"] == "config"
        assert events[0]["spec"] == SPEC.to_payload()
        assert events[0]["source"] == job.source.describe()
        assert events[0]["fingerprint"] == job.fingerprint
        chunks = [e for e in events if e["event"] == "chunk"]
        assert [e["index"] for e in chunks] == [0, 1]
        assert chunks[0]["summary"]["n_explanations"] == 4  # 2 pairs × both
        assert chunks[-1]["summary"] == report.summary.to_payload()

    def test_warm_store_is_all_dedup_hits(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        first = make_job(beer_dataset, beer_matcher, tmp_path, "warm")
        first_report = first.run()
        second = BulkJob(
            beer_matcher, first.source, spec=SPEC, store=first.store,
            run_dir=tmp_path / "warm-run2",
        )
        second_report = second.run()
        assert second_report.n_computed == 0
        assert second_report.n_dedup_hits == 4
        assert second_report.dedup_rate >= 0.9
        assert (
            second_report.summary.to_payload()
            == first_report.summary.to_payload()
        )

    def test_metrics_account_for_the_run(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "metrics")
        job.run()
        instruments = job._instruments
        assert instruments.pairs.value == 4.0
        assert instruments.chunks.value == 2.0
        assert instruments.computed.value == 4.0
        assert instruments.failures.value == 0.0
        assert instruments.progress.value == 4.0
        assert instruments.total.value == 4.0
        assert instruments.chunk_seconds.value["count"] == 2

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BulkJobSpec(chunk_size=0)


class TestFailureIsolation:
    def test_failed_pair_is_ledgered_and_excluded_from_fold(
        self, beer_dataset, beer_matcher, tmp_path, monkeypatch
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "fail")
        doomed = job.source.pairs()[1].pair_id
        import repro.bulk.job as job_module

        real = job_module.compute_explanation_payload

        def flaky(matcher, engine, fingerprint, key, request):
            if request.pair.pair_id == doomed:
                raise RuntimeError("injected explosion")
            return real(matcher, engine, fingerprint, key, request)

        monkeypatch.setattr(job_module, "compute_explanation_payload", flaky)
        report = job.run()
        assert report.n_failed == 1
        assert report.failed_pair_ids == [doomed]
        assert report.n_computed == 3
        assert report.summary.n_explanations == 6  # 3 pairs × both
        [entry] = list(report.ledger)
        assert entry.kind == KIND_SKIPPED
        assert entry.record_id == doomed
        assert entry.error == "RuntimeError"
        payload = report.report_payload(
            job.spec, job.source.describe(), job.fingerprint
        )
        assert payload["failed_pair_ids"] == [doomed]


class TestResume:
    def test_kill_at_chunk_then_resume_is_byte_identical(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        straight = make_job(beer_dataset, beer_matcher, tmp_path, "straight")
        straight_report = straight.run()
        straight_bytes = json.dumps(
            straight_report.report_payload(
                SPEC, straight.source.describe(), straight.fingerprint
            ),
            sort_keys=True,
        )

        class Boom(RuntimeError):
            pass

        def kill_after_first_chunk(index, job):
            if index == 0:
                raise Boom

        killed = make_job(
            beer_dataset, beer_matcher, tmp_path, "killed",
            on_chunk=kill_after_first_chunk,
        )
        with pytest.raises(Boom):
            killed.run()

        resumed = BulkJob(
            beer_matcher, killed.source, spec=SPEC, store=killed.store,
            run_dir=killed.run_dir,
        )
        resumed_report = resumed.run(resume=True)
        assert resumed_report.resumed_chunks == 1
        assert resumed._instruments.resumed_chunks.value == 1.0
        resumed_bytes = json.dumps(
            resumed_report.report_payload(
                SPEC, resumed.source.describe(), resumed.fingerprint
            ),
            sort_keys=True,
        )
        assert resumed_bytes == straight_bytes

    def test_resume_skips_completed_chunks_without_recompute(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        def kill_after_first_chunk(index, job):
            if index == 0:
                raise RuntimeError("kill")

        killed = make_job(
            beer_dataset, beer_matcher, tmp_path, "skip",
            on_chunk=kill_after_first_chunk,
        )
        with pytest.raises(RuntimeError):
            killed.run()
        resumed = BulkJob(
            beer_matcher, killed.source, spec=SPEC, store=killed.store,
            run_dir=killed.run_dir,
        )
        report = resumed.run(resume=True)
        # Chunk 0's two pairs are restored from the journal (2 computed
        # counted there); only chunk 1's two pairs run live.
        assert report.n_pairs == 4
        assert report.n_computed == 4
        assert resumed._instruments.pairs.value == 2.0

    def test_resume_refuses_a_different_job(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "mismatch")
        job.run()
        other_spec = BulkJobSpec(method="both", samples=16, explainer="lime",
                                 seed=0, chunk_size=2)
        retry = BulkJob(
            beer_matcher, job.source, spec=other_spec, store=job.store,
            run_dir=job.run_dir,
        )
        with pytest.raises(CheckpointError, match="different job"):
            retry.run(resume=True)

    def test_resume_refuses_a_headerless_journal(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "headerless")
        (job.run_dir / BULK_JOURNAL).write_text(
            '{"event": "chunk", "index": 0}\n', encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="config event"):
            job.run(resume=True)

    def test_resume_refuses_out_of_order_chunks(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "disorder")
        job.run()
        path = job.run_dir / BULK_JOURNAL
        events = read_journal(path)
        events.append({"event": "chunk", "index": 5})
        path.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
            encoding="utf-8",
        )
        retry = BulkJob(
            beer_matcher, job.source, spec=SPEC, store=job.store,
            run_dir=job.run_dir,
        )
        with pytest.raises(CheckpointError, match="out of order"):
            retry.run(resume=True)

    def test_fresh_run_overwrites_stale_journal(
        self, beer_dataset, beer_matcher, tmp_path
    ):
        job = make_job(beer_dataset, beer_matcher, tmp_path, "overwrite")
        job.run()
        again = BulkJob(
            beer_matcher, job.source, spec=SPEC, store=job.store,
            run_dir=job.run_dir,
        )
        report = again.run(resume=False)
        assert report.resumed_chunks == 0
        events = read_journal(job.run_dir / BULK_JOURNAL)
        assert [e["event"] for e in events] == ["config", "chunk", "chunk"]
