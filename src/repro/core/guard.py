"""The matcher guard: fault tolerance around black-box matcher calls.

The evaluation grid spends hundreds of thousands of matcher calls per run,
and the matcher is a black box — increasingly a remote, slow, flaky one.
A single hung or crashing call must not lose the run.  :class:`MatcherGuard`
wraps matcher calls with three mechanisms:

* **per-call timeout** — the call runs on a daemon thread in the caller's
  request scope and :class:`~repro.exceptions.MatcherTimeoutError` is
  raised when it does not return in time (the stuck thread is abandoned);
* **bounded retry** — up to ``max_retries`` re-invocations with exponential
  backoff and *deterministic* jitter (a dedicated seeded
  :class:`random.Random`, so retrying never touches the numpy streams the
  explanations draw from);
* **circuit breaker** — after ``trip_after`` consecutive failures the guard
  opens and the next ``cooldown`` calls fail fast with
  :class:`~repro.exceptions.MatcherUnavailableError` instead of hammering a
  dead matcher; the call after that is a half-open probe whose success
  closes the circuit again.  The cooldown is counted in *calls*, not wall
  time, so breaker behaviour is reproducible in tests.

With the default configuration (no retries, no timeout) the guard is fully
transparent: the callable is invoked directly, exceptions propagate
unchanged, and no RNG state of any kind is consumed — zero-fault runs stay
bit-identical to unguarded ones.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.config import GuardConfig
from repro.core.deadline import active_scope, checkpoint, request_scope
from repro.exceptions import MatcherTimeoutError, MatcherUnavailableError
from repro.obs.metrics import MetricsRegistry, StatsInstruments, stat
from repro.obs.tracing import trace

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


@dataclass
class GuardStats:
    """Counter snapshot of one :class:`MatcherGuard`.

    Each field declares its ``repro_guard_*_total`` counter; an engine's
    :class:`~repro.core.engine.EngineStats` embeds the same six, so a
    guard inside an engine records into the engine's instruments.
    """

    guard_retries: int = stat(
        "repro_guard_retries_total",
        "Matcher-guard re-invocations after a failed attempt",
    )
    guard_timeouts: int = stat(
        "repro_guard_timeouts_total",
        "Matcher-guard attempts abandoned on timeout",
    )
    #: Failed attempts of any kind (timeouts included).
    guard_failures: int = stat(
        "repro_guard_failures_total",
        "Matcher-guard failed attempts of any kind",
    )
    guard_trips: int = stat(
        "repro_guard_trips_total",
        "Times the matcher circuit breaker tripped open",
    )
    guard_fast_failures: int = stat(
        "repro_guard_fast_failures_total",
        "Calls rejected while the matcher circuit was open",
    )
    guard_recoveries: int = stat(
        "repro_guard_recoveries_total",
        "Half-open probes that closed the matcher circuit",
    )


class MatcherGuard:
    """Retry / timeout / circuit-breaker wrapper around matcher calls.

    Each :meth:`call` names the callable it guards (the engine passes its
    matcher's ``predict_proba_columnar``, the remote client its wire
    round-trip); the policies, counters and breaker state are the
    guard's own.  *instruments* binds :class:`GuardStats` under the
    owner's labels (an engine's or a backend's); without it the guard
    counts into a private registry.
    """

    def __init__(
        self,
        config: GuardConfig | None = None,
        instruments: StatsInstruments | None = None,
    ) -> None:
        self.config = config or GuardConfig()
        if instruments is None:
            instruments = StatsInstruments(
                MetricsRegistry(), GuardStats, "guard"
            )
        self._instruments = instruments
        self._random = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self._state = _CLOSED
        self._consecutive = 0
        self._cooldown_left = 0

    def _bump(self, field: str, amount: int = 1) -> None:
        """Increment the counter declared by :class:`GuardStats` *field*.

        Callers hold ``self._lock``; the counter synchronizes on its
        registry's own lock (acquired nested, never the reverse).
        """
        getattr(self._instruments, field).inc(amount)

    # ------------------------------------------------------------------

    @property
    def stats(self) -> GuardStats:
        """An atomic :class:`GuardStats` snapshot of this guard's counters."""
        return self._instruments.snapshot()

    @property
    def state(self) -> str:
        """Breaker state: ``closed``, ``open`` or ``half_open``."""
        return self._state

    def call(self, predict_fn, payload, size: int):
        """Invoke ``predict_fn(payload)``, applying all policies.

        Polls the ambient request scope first: an expired deadline or a
        cancelled request fails here instead of spending a matcher call
        (and instead of burning retries on work nobody is waiting for).
        *size* is the row count, used for trace spans and error messages.
        """
        checkpoint("matcher call")
        config = self.config
        if not config.active:
            with trace.span("guard_call", n_pairs=size, active=False):
                return predict_fn(payload)
        with trace.span("guard_call", n_pairs=size, active=True):
            return self._call_guarded(predict_fn, payload, size)

    def _call_guarded(self, predict_fn, payload, size: int):
        config = self.config
        self._gate()
        attempts = config.max_retries + 1
        for attempt in range(attempts):
            try:
                result = self._invoke(predict_fn, payload, size)
            except MatcherUnavailableError:
                raise
            except Exception as error:
                tripped = self._record_failure(error)
                if tripped:
                    raise MatcherUnavailableError(
                        f"matcher circuit opened after "
                        f"{config.trip_after} consecutive failures "
                        f"(last: {type(error).__name__}: {error})"
                    ) from error
                no_retry = getattr(error, "guard_no_retry", False)
                if attempt + 1 < attempts and not no_retry:
                    with self._lock:
                        self._bump("guard_retries")
                    self._sleep(attempt)
                    # A retry is new spend: don't re-attempt a call whose
                    # request already expired or lost all its waiters.
                    checkpoint("matcher retry")
                    continue
                try:
                    error.guard_attempts = attempts
                except AttributeError:  # pragma: no cover - exotic __slots__
                    pass
                raise
            else:
                self._record_success()
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------

    def _gate(self) -> None:
        """Breaker entry check: fail fast while open, admit the probe."""
        with self._lock:
            if self._state != _OPEN:
                return
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self._bump("guard_fast_failures")
                raise MatcherUnavailableError(
                    f"matcher circuit is open; retrying after "
                    f"{self._cooldown_left + 1} more rejected calls"
                )
            self._state = _HALF_OPEN

    def _invoke(self, predict_fn, payload, size: int):
        timeout = self.config.call_timeout
        if timeout is None:
            return predict_fn(payload)
        box: dict[str, object] = {}
        done = threading.Event()
        # The scope is thread-local: carry it, so an abandoned call still
        # stops at the request's deadline or cancellation.
        deadline, cancel = active_scope()

        def runner() -> None:
            try:
                with request_scope(deadline, cancel):
                    box["value"] = predict_fn(payload)
            except BaseException as error:  # noqa: BLE001 - relayed below
                box["error"] = error
            finally:
                done.set()

        thread = threading.Thread(
            target=runner, daemon=True, name="matcher-guard-call"
        )
        thread.start()
        if not done.wait(timeout):
            raise MatcherTimeoutError(
                f"matcher call on {size} pairs exceeded "
                f"{timeout:.3g}s"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["value"]

    def _record_failure(self, error: Exception) -> bool:
        """Count one failed attempt; return True when the breaker trips."""
        with self._lock:
            self._bump("guard_failures")
            if isinstance(error, MatcherTimeoutError):
                self._bump("guard_timeouts")
            self._consecutive += 1
            should_trip = (
                self._state == _HALF_OPEN
                or self._consecutive >= self.config.trip_after
            )
            if should_trip:
                self._state = _OPEN
                self._cooldown_left = self.config.cooldown
                self._consecutive = 0
                self._bump("guard_trips")
            return should_trip

    def _record_success(self) -> None:
        with self._lock:
            if self._state == _HALF_OPEN:
                self._bump("guard_recoveries")
            self._state = _CLOSED
            self._consecutive = 0

    #: Upper bound on one slice of a backoff sleep: the longest an
    #: expired deadline or a cancellation can go unnoticed mid-backoff.
    _SLEEP_SLICE = 0.05

    def _sleep(self, attempt: int) -> None:
        config = self.config
        delay = min(config.backoff_max, config.backoff * (2.0 ** attempt))
        # Deterministic jitter from the guard's own stream: never touches
        # numpy state, so retrying cannot perturb explanation draws.
        delay *= 0.5 + 0.5 * self._random.random()
        if delay <= 0:
            return
        # Backoff must not outlive the request: sleeping the full interval
        # when the ambient deadline expires sooner wastes the waiter's
        # tail latency, and the retry would be rejected anyway.  Cap the
        # sleep at the deadline's remaining budget and poll the scope in
        # slices so cancellation aborts the backoff within _SLEEP_SLICE.
        deadline, cancel = active_scope()
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining is not None:
                delay = min(delay, max(0.0, remaining))
        if deadline is None and cancel is None:
            if delay > 0:
                time.sleep(delay)
            return
        wake_at = time.monotonic() + delay
        while True:
            checkpoint("matcher retry backoff")
            left = wake_at - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(self._SLEEP_SLICE, left))
