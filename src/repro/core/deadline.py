"""Request deadlines and cooperative cancellation.

Serving landmark explanations means bounding tail latency: a perturbation
explanation costs hundreds of matcher calls, and a caller that gave up
(its own timeout fired, its HTTP connection dropped) must not keep a
worker busy for the rest of that spend.  This module provides the two
primitives the request-lifecycle layer is built from:

* :class:`Deadline` — an absolute point on the monotonic clock with
  ``remaining()`` / ``expired()`` / ``check()`` accessors;
* :class:`CancelToken` — a thread-safe flag a caller flips when it
  abandons a request.

Both are *cooperative*: nothing is interrupted preemptively.  The
prediction engine polls the **ambient scope** — a thread-local
``(deadline, cancel-token)`` pair installed with :func:`request_scope` —
between matcher chunks, so an expired or abandoned request aborts at the
next chunk boundary with :class:`~repro.exceptions.DeadlineExceededError`
or :class:`~repro.exceptions.RequestCancelledError` instead of computing
its full batch.  Polling never changes results (checks are read-only and
raise or pass), so zero-fault runs stay bit-identical with or without a
scope installed.

The scope is thread-local by design: each service worker computes one
request at a time, and the engine runs a request's chunks on the
worker's own thread.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.exceptions import DeadlineExceededError, RequestCancelledError

__all__ = [
    "CancelToken",
    "Deadline",
    "active_scope",
    "checkpoint",
    "request_scope",
]


class Deadline:
    """An absolute deadline on an injectable monotonic clock.

    Built with :meth:`after`; ``clock`` is injectable so expiry behaviour
    is testable without sleeping.  A ``None`` budget means "no deadline" —
    :meth:`never` returns a deadline that cannot expire.
    """

    __slots__ = ("_at", "_clock")

    def __init__(
        self,
        at: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._at = at
        self._clock = clock

    @classmethod
    def after(
        cls,
        seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """The deadline *seconds* from now (``None`` = never expires)."""
        if seconds is None:
            return cls(None, clock)
        return cls(clock() + float(seconds), clock)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    @property
    def bounded(self) -> bool:
        """Whether this deadline can expire at all."""
        return self._at is not None

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or ``None`` if unbounded."""
        if self._at is None:
            return None
        return self._at - self._clock()

    def expired(self) -> bool:
        return self._at is not None and self._clock() >= self._at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the deadline passed."""
        if self.expired():
            remaining = self.remaining() or 0.0
            raise DeadlineExceededError(
                f"{what} deadline exceeded by {-remaining:.3f}s"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._at is None:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CancelToken:
    """A thread-safe one-way cancellation flag.

    The service flips it when the last waiter of a ticket walks away;
    workers and the engine poll it at cheap boundaries.  Cancelling an
    already-cancelled token is a no-op, so racing waiters are safe.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self, what: str = "request") -> None:
        """Raise :class:`RequestCancelledError` if cancelled."""
        if self._event.is_set():
            raise RequestCancelledError(f"{what} was cancelled by its waiters")


class _Scope(threading.local):
    deadline: Deadline | None = None
    cancel: CancelToken | None = None


_scope = _Scope()


class request_scope:
    """Install an ambient ``(deadline, cancel)`` pair for this thread.

    Used as a context manager by the service worker around one request's
    computation; nests safely (the previous scope is restored on exit)::

        with request_scope(Deadline.after(0.5), token):
            explainer.explain(pair)   # engine polls between chunks
    """

    def __init__(
        self,
        deadline: Deadline | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self._deadline = deadline
        self._cancel = cancel
        self._previous: tuple[Deadline | None, CancelToken | None] | None = None

    def __enter__(self) -> "request_scope":
        self._previous = (_scope.deadline, _scope.cancel)
        _scope.deadline = self._deadline
        _scope.cancel = self._cancel
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        _scope.deadline, _scope.cancel = self._previous
        self._previous = None


def active_scope() -> tuple[Deadline | None, CancelToken | None]:
    """The calling thread's ambient ``(deadline, cancel)`` pair."""
    return _scope.deadline, _scope.cancel


def checkpoint(what: str = "request") -> None:
    """Poll the ambient scope; raise if expired or cancelled.

    The single call sites sprinkle between chunks — a no-op (two
    attribute reads) when no scope is installed, so the non-serving paths
    pay nothing.
    """
    deadline = _scope.deadline
    if deadline is not None:
        deadline.check(what)
    cancel = _scope.cancel
    if cancel is not None:
        cancel.check(what)
