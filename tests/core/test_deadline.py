"""Tests for request deadlines, cancel tokens and the ambient scope.

The contract under test: deadlines and cancellation are *cooperative*
(polled between engine chunks and before guard calls), abort with the
typed lifecycle errors, and never change the bits of a computation that
completes.
"""

import numpy as np
import pytest

from repro.core.deadline import (
    CancelToken,
    Deadline,
    active_scope,
    checkpoint,
    request_scope,
)
from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.guard import GuardConfig, MatcherGuard
from repro.data.records import NON_MATCH, RecordPair
from repro.data.schema import PairSchema
from repro.exceptions import DeadlineExceededError, RequestCancelledError


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_pairs(n: int) -> list[RecordPair]:
    schema = PairSchema(("name",))
    return [
        RecordPair(
            schema=schema,
            left={"name": f"left item {index}"},
            right={"name": f"right item {index}"},
            label=NON_MATCH,
            pair_id=index,
        )
        for index in range(n)
    ]


class CountingMatcher:
    """Returns 0.5 for everything; optionally advances a clock per call."""

    def __init__(self, clock=None, per_call=0.0, on_call=None):
        self.calls = 0
        self.clock = clock
        self.per_call = per_call
        self.on_call = on_call

    def predict_proba(self, pairs):
        self.calls += 1
        if self.clock is not None:
            self.clock.advance(self.per_call)
        if self.on_call is not None:
            self.on_call(self.calls)
        return np.full(len(pairs), 0.5)

    def predict_one(self, pair):
        return 0.5


class TestDeadline:
    def test_after_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert deadline.bounded
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(0.5)
        assert deadline.expired()

    def test_check_raises_with_overrun(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        deadline.check()  # not expired: no-op
        clock.advance(1.25)
        with pytest.raises(DeadlineExceededError, match="exceeded by 0.250s"):
            deadline.check()

    def test_never_is_unbounded(self):
        deadline = Deadline.never()
        assert not deadline.bounded
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()

    def test_none_budget_means_never(self):
        assert not Deadline.after(None).bounded


class TestCancelToken:
    def test_cancel_is_sticky_and_idempotent(self):
        token = CancelToken()
        assert not token.cancelled
        token.check()  # not cancelled: no-op
        token.cancel()
        token.cancel()
        assert token.cancelled
        with pytest.raises(RequestCancelledError):
            token.check("explain request")


class TestRequestScope:
    def test_scope_installs_and_restores(self):
        assert active_scope() == (None, None)
        deadline, token = Deadline.never(), CancelToken()
        with request_scope(deadline, token):
            assert active_scope() == (deadline, token)
        assert active_scope() == (None, None)

    def test_scopes_nest(self):
        outer_deadline, outer_token = Deadline.never(), CancelToken()
        inner_deadline = Deadline.never()
        with request_scope(outer_deadline, outer_token):
            with request_scope(inner_deadline, None):
                assert active_scope() == (inner_deadline, None)
            assert active_scope() == (outer_deadline, outer_token)

    def test_checkpoint_without_scope_is_noop(self):
        checkpoint()

    def test_checkpoint_raises_on_expired_deadline(self):
        clock = FakeClock()
        with request_scope(Deadline.after(1.0, clock), None):
            checkpoint()
            clock.advance(2.0)
            with pytest.raises(DeadlineExceededError):
                checkpoint()

    def test_checkpoint_raises_on_cancel(self):
        token = CancelToken()
        with request_scope(None, token):
            checkpoint()
            token.cancel()
            with pytest.raises(RequestCancelledError):
                checkpoint()


class TestEngineAbortsBetweenChunks:
    def test_deadline_aborts_between_chunks(self):
        clock = FakeClock()
        matcher = CountingMatcher(clock, per_call=1.0)
        engine = PredictionEngine(matcher, EngineConfig(batch_size=2))
        pairs = make_pairs(6)
        # 0.5s budget, 1s per chunk: chunk 1 completes (and overruns),
        # the poll before chunk 2 aborts.  One matcher call, not three.
        with request_scope(Deadline.after(0.5, clock), None):
            with pytest.raises(DeadlineExceededError):
                engine.predict_pairs(pairs)
        assert matcher.calls == 1

    def test_already_expired_deadline_spends_no_calls(self):
        clock = FakeClock()
        matcher = CountingMatcher(clock)
        engine = PredictionEngine(matcher, EngineConfig(batch_size=2))
        clock.advance(5.0)
        with request_scope(Deadline.after(-1.0, clock), None):
            with pytest.raises(DeadlineExceededError):
                engine.predict_pairs(make_pairs(4))
        assert matcher.calls == 0

    def test_cancel_mid_computation_aborts_next_chunk(self):
        token = CancelToken()
        matcher = CountingMatcher(
            on_call=lambda calls: token.cancel() if calls == 1 else None
        )
        engine = PredictionEngine(matcher, EngineConfig(batch_size=2))
        with request_scope(None, token):
            with pytest.raises(RequestCancelledError):
                engine.predict_pairs(make_pairs(6))
        assert matcher.calls == 1

    def test_unexpired_scope_changes_nothing(self):
        matcher = CountingMatcher()
        pairs = make_pairs(4)
        bare = PredictionEngine(
            matcher, EngineConfig(batch_size=2)
        ).predict_pairs(pairs)
        # A fresh engine, so the scoped call reaches the matcher too.
        engine = PredictionEngine(matcher, EngineConfig(batch_size=2))
        with request_scope(Deadline.never(), CancelToken()):
            scoped = engine.predict_pairs(pairs)
        np.testing.assert_array_equal(bare, scoped)
        assert matcher.calls == 4

    def test_every_chunk_boundary_polls_the_scope(self, monkeypatch):
        # Chunks run in order on the calling thread, so the scope is
        # polled before each of them: a three-chunk call polls three
        # times, each time right before its chunk reaches the matcher.
        import repro.core.guard as guard_module

        matcher = CountingMatcher()
        polls = []

        def recording_checkpoint(what="request"):
            polls.append(matcher.calls)
            checkpoint(what)

        monkeypatch.setattr(guard_module, "checkpoint", recording_checkpoint)
        engine = PredictionEngine(matcher, EngineConfig(batch_size=2))
        with request_scope(Deadline.never(), CancelToken()):
            engine.predict_pairs(make_pairs(6))
        assert engine.stats.batches == 3
        assert polls == [0, 1, 2]


class TestGuardHonoursScope:
    def test_guard_call_checks_scope_first(self):
        matcher = CountingMatcher()
        guard = MatcherGuard()
        token = CancelToken()
        token.cancel()
        with request_scope(None, token):
            with pytest.raises(RequestCancelledError):
                guard.call(matcher.predict_proba, make_pairs(1), 1)
        assert matcher.calls == 0

    def test_retry_does_not_burn_attempts_on_expired_request(self):
        clock = FakeClock()
        attempts = []

        def flaky(pairs):
            attempts.append(len(attempts))
            clock.advance(1.0)
            raise RuntimeError("transient")

        guard = MatcherGuard(
            GuardConfig(max_retries=5, backoff=0.0, trip_after=100)
        )
        # The first attempt spends the whole 0.5s budget; the poll before
        # the retry aborts with the deadline error, not the matcher error.
        with request_scope(Deadline.after(0.5, clock), None):
            with pytest.raises(DeadlineExceededError):
                guard.call(flaky, make_pairs(1), 1)
        assert len(attempts) == 1
