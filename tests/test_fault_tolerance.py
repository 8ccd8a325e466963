"""Fault tolerance end to end: guard, ledger, degradation, checkpoint/resume.

The scenarios mirror the failure modes the machinery exists for: transient
matcher faults (retry), hung calls (timeout), dead matchers (circuit
breaker), per-record explanation failures (ledger + ``n_skipped``),
double-entity generation falling back to single (``degraded``), and a run
killed mid-grid that resumes to the same result.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.config import (
    EngineConfig,
    ExperimentConfig,
    FAST,
    METHOD_DOUBLE,
    METHOD_LIME,
    METHOD_SINGLE,
)
from repro.core.deadline import (
    CancelToken,
    Deadline,
    active_scope,
    checkpoint,
    request_scope,
)
from repro.core.guard import GuardConfig, GuardStats, MatcherGuard
from repro.evaluation.ledger import (
    CELL_RECORD_ID,
    FailureEntry,
    FailureLedger,
    KIND_CELL,
    KIND_DEGRADED,
    KIND_SKIPPED,
)
from repro.evaluation.methods import MethodExplainers
from repro.evaluation.persistence import (
    CHECKPOINT_NAME,
    load_checkpoint,
    result_from_dict,
    result_to_dict,
)
from repro.evaluation.runner import ExperimentRunner
from repro.evaluation.tables import format_all_tables
from repro.exceptions import (
    CheckpointError,
    ExplanationError,
    MatcherTimeoutError,
    MatcherUnavailableError,
)
from repro.explainers.lime_text import LimeConfig
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.testing.faults import FaultSchedule, FlakyMatcher, SlowMatcher

#: Smallest config that still exercises the full grid machinery.
TINY = ExperimentConfig(
    name="tiny",
    per_label=3,
    lime_samples=16,
    size_cap=120,
    methods=(METHOD_SINGLE, METHOD_LIME),
)


# ---------------------------------------------------------------------------
# MatcherGuard unit behaviour
# ---------------------------------------------------------------------------


class TestMatcherGuard:
    def test_inactive_guard_is_transparent(self):
        def fn(pairs):
            raise RuntimeError("matcher bug")

        guard = MatcherGuard(GuardConfig())
        assert not guard.config.active
        # The original exception propagates untouched: no retry, no
        # wrapping, no counter churn.
        with pytest.raises(RuntimeError, match="matcher bug"):
            guard.call(fn, [0], 1)
        assert guard.stats == GuardStats()

    def test_retry_then_success(self):
        calls = {"n": 0}

        def fn(pairs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return np.full(len(pairs), 0.5)

        guard = MatcherGuard(GuardConfig(max_retries=2, backoff=0.0))
        out = guard.call(fn, [0, 1], 2)
        assert list(out) == [0.5, 0.5]
        assert guard.stats.guard_retries == 1
        assert guard.stats.guard_failures == 1
        assert guard.state == "closed"

    def test_retry_exhaustion_reraises_and_tags_attempts(self):
        def fn(pairs):
            raise RuntimeError("always down")

        guard = MatcherGuard(
            GuardConfig(max_retries=2, trip_after=10, backoff=0.0)
        )
        with pytest.raises(RuntimeError, match="always down") as info:
            guard.call(fn, [0], 1)
        assert info.value.guard_attempts == 3
        assert guard.stats.guard_failures == 3
        assert guard.stats.guard_retries == 2

    def test_timeout(self):
        def fn(pairs):
            time.sleep(5.0)
            return np.zeros(len(pairs))

        guard = MatcherGuard(
            GuardConfig(call_timeout=0.05, trip_after=10, backoff=0.0)
        )
        started = time.perf_counter()
        with pytest.raises(MatcherTimeoutError):
            guard.call(fn, [0, 1], 2)
        assert time.perf_counter() - started < 2.0
        assert guard.stats.guard_timeouts == 1
        assert guard.stats.guard_failures == 1

    def test_timed_call_runs_in_the_callers_request_scope(self):
        seen = []

        def fn(pairs):
            seen.append(active_scope())
            return np.zeros(len(pairs))

        deadline, token = Deadline.after(30), CancelToken()
        guard = MatcherGuard(GuardConfig(call_timeout=5.0))
        with request_scope(deadline, token):
            guard.call(fn, [0], 1)
        assert seen == [(deadline, token)]

    def test_abandoned_call_stops_at_its_request_cancellation(self):
        stopped = threading.Event()

        def fn(pairs):
            try:
                for _ in range(100):  # 5 s unless the scope stops it
                    checkpoint("slow matcher")
                    time.sleep(0.05)
                return np.zeros(len(pairs))
            finally:
                stopped.set()

        token = CancelToken()
        guard = MatcherGuard(GuardConfig(call_timeout=0.05, trip_after=10))
        with request_scope(Deadline.never(), token):
            with pytest.raises(MatcherTimeoutError):
                guard.call(fn, [0], 1)
        token.cancel()
        # The abandoned runner sees the cancellation, not just its loop.
        assert stopped.wait(2.0)

    def test_circuit_trips_cools_down_and_recovers(self):
        calls = {"n": 0}

        def fn(pairs):
            calls["n"] += 1
            if calls["n"] <= 3:
                raise RuntimeError("boom")
            return np.ones(len(pairs))

        # call_timeout activates the guard without allowing retries, so
        # every failure is consecutive from the breaker's point of view.
        guard = MatcherGuard(
            GuardConfig(
                call_timeout=30.0, trip_after=3, cooldown=2, backoff=0.0
            ),
        )
        for _ in range(2):
            with pytest.raises(RuntimeError):
                guard.call(fn, [0], 1)
        # The third consecutive failure trips the breaker.
        with pytest.raises(MatcherUnavailableError):
            guard.call(fn, [0], 1)
        assert guard.state == "open"
        assert guard.stats.guard_trips == 1
        # While open, calls fail fast without touching the matcher.
        for _ in range(2):
            with pytest.raises(MatcherUnavailableError):
                guard.call(fn, [0], 1)
        assert calls["n"] == 3
        assert guard.stats.guard_fast_failures == 2
        # The next call is the half-open probe; it succeeds and closes.
        out = guard.call(fn, [0], 1)
        assert list(out) == [1.0]
        assert guard.state == "closed"
        assert guard.stats.guard_recoveries == 1

    def test_failed_half_open_probe_reopens(self):
        def fn(pairs):
            raise RuntimeError("still down")

        guard = MatcherGuard(
            GuardConfig(
                call_timeout=30.0, trip_after=2, cooldown=1, backoff=0.0
            ),
        )
        for _ in range(1):
            with pytest.raises(RuntimeError):
                guard.call(fn, [0], 1)
        with pytest.raises(MatcherUnavailableError):
            guard.call(fn, [0], 1)  # trips
        with pytest.raises(MatcherUnavailableError):
            guard.call(fn, [0], 1)  # cooldown fast-fail
        with pytest.raises(MatcherUnavailableError):
            guard.call(fn, [0], 1)  # failed probe re-trips immediately
        assert guard.state == "open"
        assert guard.stats.guard_trips == 2
        assert guard.stats.guard_recoveries == 0


# ---------------------------------------------------------------------------
# Fault schedule determinism
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_schedule_is_deterministic_per_index(self):
        one = FaultSchedule(0.3, seed=7)
        two = FaultSchedule(0.3, seed=7)
        draws = [one.should_fail(i) for i in range(200)]
        assert draws == [two.should_fail(i) for i in range(200)]
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.45

    def test_different_seeds_differ(self):
        one = FaultSchedule(0.5, seed=1)
        two = FaultSchedule(0.5, seed=2)
        assert [one.should_fail(i) for i in range(64)] != [
            two.should_fail(i) for i in range(64)
        ]

    def test_flaky_matcher_delegates(self, beer_matcher, beer_dataset):
        flaky = FlakyMatcher(beer_matcher, fail_rate=0.0)
        pairs = list(beer_dataset)[:4]
        np.testing.assert_allclose(
            flaky.predict_proba(pairs), beer_matcher.predict_proba(pairs)
        )
        # Attribute access falls through to the wrapped matcher.
        assert callable(flaky.attribute_weights)

    def test_slow_matcher_delays(self, beer_matcher, beer_dataset):
        slow = SlowMatcher(beer_matcher, delay=0.02, slow_rate=1.0)
        pairs = list(beer_dataset)[:2]
        started = time.perf_counter()
        slow.predict_proba(pairs)
        assert time.perf_counter() - started >= 0.02
        assert slow.slowed == 1


# ---------------------------------------------------------------------------
# Failure ledger
# ---------------------------------------------------------------------------


class TestFailureLedger:
    def _entry(self, kind=KIND_SKIPPED, record_id=3):
        try:
            raise RuntimeError("synthetic failure")
        except RuntimeError as error:
            error.guard_attempts = 4
            error.landmark_side = "left"
            return FailureEntry.from_exception(
                "S-BR", 1, METHOD_SINGLE, record_id, error, kind=kind
            )

    def test_from_exception_reads_tags(self):
        entry = self._entry()
        assert entry.attempts == 4
        assert entry.side == "left"
        assert entry.error == "RuntimeError"
        assert entry.message == "synthetic failure"
        assert len(entry.digest) == 12

    def test_payload_round_trip(self):
        ledger = FailureLedger()
        ledger.add(self._entry())
        ledger.add(self._entry(kind=KIND_CELL, record_id=CELL_RECORD_ID))
        restored = FailureLedger.from_payload(
            json.loads(json.dumps(ledger.to_payload()))
        )
        assert restored.entries == ledger.entries
        assert restored.count(KIND_CELL) == 1

    def test_summary_counts_kinds(self):
        ledger = FailureLedger()
        ledger.add(self._entry())
        ledger.add(self._entry(kind=KIND_DEGRADED))
        assert "1 skipped" in ledger.summary()
        assert "1 degraded" in ledger.summary()


# ---------------------------------------------------------------------------
# Runner isolation: skipped records, degraded records, failed cells
# ---------------------------------------------------------------------------


class TestRunnerIsolation:
    def test_double_failure_degrades_to_single(self, beer_matcher, non_match_pair):
        explainers = MethodExplainers(
            beer_matcher, lime_config=LimeConfig(n_samples=16, seed=0)
        )
        original = explainers._landmark.explain

        def failing(pair, generation="auto"):
            if generation == "double":
                raise ExplanationError("injected double failure")
            return original(pair, generation)

        explainers._landmark.explain = failing
        record = explainers.explain(METHOD_DOUBLE, non_match_pair)
        assert record.degraded
        assert isinstance(record.degraded_error, ExplanationError)
        assert record.token_weights  # the single-entity fallback is real

    def test_skipped_records_feed_ledger_and_metrics(self, monkeypatch):
        original = MethodExplainers.explain

        def flaky_explain(self, method, pair):
            if method == METHOD_SINGLE and pair.pair_id % 2 == 0:
                raise ExplanationError("injected per-record failure")
            return original(self, method, pair)

        monkeypatch.setattr(MethodExplainers, "explain", flaky_explain)
        result = ExperimentRunner(TINY).run_dataset("S-BR")
        skipped = [
            entry for entry in result.failures if entry.kind == KIND_SKIPPED
        ]
        assert skipped, "expected injected failures in the ledger"
        for (label, method), metrics in result.metrics.items():
            cell = [
                e for e in skipped if e.label == label and e.method == method
            ]
            # The n_skipped column is wired to the ledger, and skipped
            # records are genuinely absent from the evaluated ones.
            assert metrics.n_skipped == len(cell)
            assert metrics.n_records + metrics.n_skipped == TINY.per_label
        assert any(m.n_skipped for m in result.metrics.values())
        entry = skipped[0]
        assert entry.error == "ExplanationError"
        assert entry.record_id >= 0

    def test_cell_failure_isolated(self, monkeypatch):
        import repro.evaluation.runner as runner_module

        def broken_eval(*args, **kwargs):
            raise RuntimeError("evaluation stage died")

        monkeypatch.setattr(runner_module, "interest_eval", broken_eval)
        result = ExperimentRunner(TINY).run_dataset("S-BR")
        # Every cell failed, none raised out of run_dataset.
        assert result.metrics == {}
        cell_entries = [e for e in result.failures if e.kind == KIND_CELL]
        assert len(cell_entries) == 4  # 2 labels x 2 methods
        assert all(e.record_id == CELL_RECORD_ID for e in cell_entries)
        # Degraded cells are footnoted instead of silently blank.
        rendered = format_all_tables(_as_benchmark(result))
        assert "cell failed" in rendered

    def test_flaky_matcher_run_completes(self):
        config = dataclasses.replace(
            TINY,
            engine=EngineConfig(guard=GuardConfig(max_retries=3, backoff=0.0)),
        )
        runner = ExperimentRunner(
            config,
            matcher_factory=lambda: FlakyMatcher(
                LogisticRegressionMatcher(), fail_rate=0.2, seed=1
            ),
        )
        result = runner.run(["S-BR"])
        dataset_result = result.datasets["S-BR"]
        # The run finished and produced a (possibly degraded) grid.
        assert dataset_result.metrics
        stats = result.engine_totals()
        assert stats.guard_failures > 0
        assert stats.guard_retries > 0
        # Whatever the guard could not absorb is accounted for, not lost.
        for entry in result.ledger():
            assert entry.kind in (KIND_SKIPPED, KIND_DEGRADED, KIND_CELL)


def _as_benchmark(dataset_result):
    from repro.evaluation.runner import BenchmarkResult

    result = BenchmarkResult(config=TINY)
    result.datasets[dataset_result.code] = dataset_result
    return result


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def _comparable(result):
    """Run payload minus fields that legitimately vary across resumes."""
    payload = result_to_dict(result)
    for dataset_payload in payload["datasets"].values():
        dataset_payload.pop("engine_stats", None)
        for metrics in dataset_payload["metrics"]:
            metrics.pop("seconds", None)
        dataset_payload["metrics"].sort(
            key=lambda m: (m["label"], m["method"])
        )
    return payload


class _Killed(Exception):
    pass


#: The engine that :func:`_flatten_engine`'s overrides in the tests ask for.
FLAT_ENGINE = EngineConfig(guard=GuardConfig(max_retries=3, backoff=0.0))


def _flatten_engine(config: dict, **flat) -> None:
    """Rewrite a config payload into the flat ``engine_*`` / ``guard_*``
    keys written before ``ExperimentConfig.engine`` nested (with the
    retired ``engine_dedup`` / ``engine_cache`` switches and
    ``engine_n_jobs`` thread count they carried), then apply *flat*."""
    engine = config.pop("engine")
    guard = engine.pop("guard")
    config["engine_dedup"] = config["engine_cache"] = True
    config["engine_n_jobs"] = 2
    config["engine_batch_size"] = engine["batch_size"]
    for name in ("max_retries", "call_timeout", "trip_after", "cooldown",
                 "backoff"):
        config[f"guard_{name}"] = guard[name]
    config.update(flat)


def _nest_retired_switches(config: dict, **flat) -> None:
    """Add the retired ``dedup`` / ``cache`` switches to the nested
    engine payload, as written while the engine had an off switch, then
    apply *flat*."""
    config["engine"].update(dedup=False, cache=False)
    config.update(flat)


def _nest_retired_thread_pool(config: dict, **flat) -> None:
    """Add the retired ``n_jobs`` thread count to the nested engine
    payload, as written while the engine ran chunks on a thread pool,
    then apply *flat*."""
    config["engine"]["n_jobs"] = 2
    config.update(flat)


#: Rewrites of a current config payload into the shapes older results
#: and checkpoints carry.
OLD_ENGINE_PAYLOADS = (
    _flatten_engine, _nest_retired_switches, _nest_retired_thread_pool
)


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = ExperimentRunner(TINY).run(["S-BR"])
        checkpointed = ExperimentRunner(TINY).run(
            ["S-BR"], run_dir=str(tmp_path / "run")
        )
        assert _comparable(checkpointed) == _comparable(plain)
        assert (tmp_path / "run" / CHECKPOINT_NAME).exists()

    def test_kill_at_cell_k_then_resume_is_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        baseline = ExperimentRunner(TINY).run(["S-BR"])

        seen = []

        def killer(code, label, method):
            seen.append((code, label, method))
            if len(seen) == 2:
                raise _Killed()

        with pytest.raises(_Killed):
            ExperimentRunner(TINY, on_cell=killer).run(
                ["S-BR"], run_dir=str(run_dir)
            )
        state = load_checkpoint(run_dir)
        assert state.n_cells() == 2
        assert state.config == TINY

        resumed = ExperimentRunner(state.config).run(
            ["S-BR"], run_dir=str(run_dir), resume=True
        )
        assert _comparable(resumed) == _comparable(baseline)
        # And the saved JSON round-trips with the ledger attached.
        restored = result_from_dict(result_to_dict(resumed))
        assert _comparable(restored) == _comparable(baseline)

    def test_resume_of_finished_run_skips_everything(self, tmp_path):
        run_dir = tmp_path / "run"
        first = ExperimentRunner(TINY).run(["S-BR"], run_dir=str(run_dir))

        def forbidden(*args, **kwargs):
            raise AssertionError("a finished run must not retrain")

        resumed = ExperimentRunner(
            TINY, matcher_factory=forbidden
        ).run(["S-BR"], run_dir=str(run_dir), resume=True)
        assert _comparable(resumed) == _comparable(first)

    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(TINY).run(["S-BR"], run_dir=str(run_dir))
        journal = run_dir / CHECKPOINT_NAME
        # Simulate a kill mid-write: a truncated JSON line at the end.
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "cell", "code": "S-')
        state = load_checkpoint(run_dir)
        assert state.n_cells() == len(TINY.methods) * 2

    def test_corrupt_interior_line_raises(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(TINY).run(["S-BR"], run_dir=str(run_dir))
        journal = run_dir / CHECKPOINT_NAME
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = "not json at all"
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(run_dir)

    def test_config_mismatch_refuses_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        ExperimentRunner(TINY).run(["S-BR"], run_dir=str(run_dir))
        with pytest.raises(CheckpointError, match="different"):
            load_checkpoint(run_dir, expected_config=FAST)

    def test_resume_recovers_dataset_selection(self, tmp_path):
        run_dir = tmp_path / "run"
        first = ExperimentRunner(TINY).run(["S-BR"], run_dir=str(run_dir))
        state = load_checkpoint(run_dir)
        assert state.codes == ("S-BR",)
        # Resuming without naming datasets re-runs the original selection,
        # not the full benchmark.
        resumed = ExperimentRunner(TINY).run(
            run_dir=str(run_dir), resume=True
        )
        assert list(resumed.datasets) == ["S-BR"]
        assert _comparable(resumed) == _comparable(first)

    def test_checkpoint_with_retired_vectorize_key_resumes(self, tmp_path):
        # Checkpoints written while EngineConfig had a ``vectorize`` knob
        # carry ``engine_vectorize`` in their config header.
        run_dir = tmp_path / "run"
        baseline = ExperimentRunner(TINY).run(["S-BR"])
        seen = []

        def killer(code, label, method):
            seen.append((code, label, method))
            if len(seen) == 2:
                raise _Killed()

        with pytest.raises(_Killed):
            ExperimentRunner(TINY, on_cell=killer).run(
                ["S-BR"], run_dir=str(run_dir)
            )
        journal = run_dir / CHECKPOINT_NAME
        lines = journal.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["config"]["engine_vectorize"] = False
        lines[0] = json.dumps(header)
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

        state = load_checkpoint(run_dir, expected_config=TINY)
        assert state.config == TINY
        assert state.n_cells() == 2
        resumed = ExperimentRunner(state.config).run(
            ["S-BR"], run_dir=str(run_dir), resume=True
        )
        assert _comparable(resumed) == _comparable(baseline)

    def test_result_with_retired_vectorize_key_loads(self):
        result = ExperimentRunner(TINY).run(["S-BR"])
        payload = json.loads(json.dumps(result_to_dict(result)))
        payload["config"]["engine_vectorize"] = False
        restored = result_from_dict(payload)
        assert restored.config == TINY
        assert _comparable(restored) == _comparable(result)

    def test_checkpoint_with_flat_engine_keys_resumes(self, tmp_path):
        run_dir = tmp_path / "run"
        baseline = ExperimentRunner(TINY).run(["S-BR"])
        seen = []

        def killer(code, label, method):
            seen.append((code, label, method))
            if len(seen) == 2:
                raise _Killed()

        with pytest.raises(_Killed):
            ExperimentRunner(TINY, on_cell=killer).run(
                ["S-BR"], run_dir=str(run_dir)
            )
        journal = run_dir / CHECKPOINT_NAME
        lines = journal.read_text(encoding="utf-8").splitlines()
        current = lines[0]
        expected = dataclasses.replace(TINY, engine=FLAT_ENGINE)
        for rewrite in OLD_ENGINE_PAYLOADS:
            header = json.loads(current)
            rewrite(header["config"], guard_max_retries=3, guard_backoff=0.0)
            lines[0] = json.dumps(header)
            journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
            state = load_checkpoint(run_dir, expected_config=expected)
            assert state.config == expected, rewrite.__name__
            assert state.n_cells() == 2
        resumed = ExperimentRunner(state.config).run(
            ["S-BR"], run_dir=str(run_dir), resume=True
        )
        # Same tables; only the recorded engine knobs differ.
        assert (_comparable(resumed)["datasets"]
                == _comparable(baseline)["datasets"])

    def test_result_with_flat_engine_keys_loads(self):
        result = ExperimentRunner(TINY).run(["S-BR"])
        for rewrite in OLD_ENGINE_PAYLOADS:
            payload = json.loads(json.dumps(result_to_dict(result)))
            rewrite(payload["config"], guard_max_retries=3, guard_backoff=0.0)
            restored = result_from_dict(payload)
            assert restored.config == dataclasses.replace(
                TINY, engine=FLAT_ENGINE
            ), rewrite.__name__
            assert (_comparable(restored)["datasets"]
                    == _comparable(result)["datasets"])

    def test_resume_without_run_dir_raises(self):
        with pytest.raises(CheckpointError, match="run_dir"):
            ExperimentRunner(TINY).run(["S-BR"], resume=True)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path)


class TestGuardBackoffScope:
    """The backoff sleep must respect the ambient request scope.

    A retry delay is time *charged to the waiting request*: sleeping the
    full backoff after the deadline already expired (or after every
    waiter left) burns tail latency on work nobody can use.
    """

    @staticmethod
    def _transient(pairs):
        raise RuntimeError("transient")

    @staticmethod
    def _always_failing_guard(backoff: float) -> MatcherGuard:
        return MatcherGuard(
            GuardConfig(
                max_retries=3, trip_after=100,
                backoff=backoff, backoff_max=backoff,
            ),
        )

    def test_expired_deadline_aborts_backoff_immediately(self):
        from repro.core.deadline import Deadline, request_scope
        from repro.exceptions import DeadlineExceededError

        guard = self._always_failing_guard(backoff=30.0)
        started = time.monotonic()
        with request_scope(Deadline.after(0.05)):
            with pytest.raises(DeadlineExceededError):
                guard.call(self._transient, [0], 1)
        elapsed = time.monotonic() - started
        # The naive behaviour sleeps the full 30s backoff before the
        # post-sleep checkpoint notices.  The capped sleep returns within
        # the deadline budget (plus one poll slice of slack).
        assert elapsed < 2.0
        assert guard.stats.guard_retries >= 1

    def test_cancellation_interrupts_backoff_mid_sleep(self):
        import threading

        from repro.core.deadline import CancelToken, request_scope
        from repro.exceptions import RequestCancelledError

        guard = self._always_failing_guard(backoff=30.0)
        token = CancelToken()
        timer = threading.Timer(0.15, token.cancel)
        timer.start()
        started = time.monotonic()
        try:
            with request_scope(cancel=token):
                with pytest.raises(RequestCancelledError):
                    guard.call(self._transient, [0], 1)
        finally:
            timer.cancel()
        elapsed = time.monotonic() - started
        # Cancellation lands mid-sleep; the sliced backoff notices within
        # _SLEEP_SLICE instead of finishing the 30s interval.
        assert elapsed < 2.0

    def test_unscoped_backoff_still_sleeps(self):
        guard = self._always_failing_guard(backoff=0.05)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="transient"):
            guard.call(self._transient, [0], 1)
        elapsed = time.monotonic() - started
        # Three retries, each backing off ~0.05s (jitter halves at most).
        assert elapsed >= 0.05
        assert guard.stats.guard_retries == 3
