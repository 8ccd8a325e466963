"""The cross-request batch scheduler.

The serving layer's workers compute different requests concurrently, and
each request's cache-miss set reaches the matcher as its own (often small)
batch.  :class:`CrossRequestBatcher` sits between the prediction engine's
miss sets and its matcher execution: submissions from different threads
are buffered for up to a small time window (or until a row budget fills)
and flushed as **one merged matcher batch**, amortizing per-call overhead
and letting columnar matchers run at full width.

Scheduling semantics (leader/follower):

* the first submitter of an empty buffer becomes the **leader** and waits
  up to ``window_seconds`` for followers;
* followers enqueue and wait on their slot; a follower whose rows fill
  ``max_rows`` wakes the leader immediately;
* the leader drains the buffer, executes the merged batch (outside any
  lock) and scatters results — or the failure — back to every slot.

A submission at or above ``max_rows`` executes directly; it gains nothing
from waiting.  Pair-list and columnar submissions ride the same buffer
but merge per kind (a flush may issue one merged call of each).

Correctness: merging never changes a result bit.  Every matcher behind
the engine scores rows independently, so a row's probability is the same
whatever batch carries it — the same argument that makes the engine's
chunking safe, extended across requests.  The one sharing hazard is
*fault* attribution: the merged call runs on the leader's thread (and
under the leader's ambient request scope), so a guard failure or an
expired leader deadline fails every merged request in that flush.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.core.columnar import ColumnarPairBatch
from repro.exceptions import ConfigurationError


class _Slot:
    """One submitted miss set waiting for its share of a merged flush."""

    __slots__ = ("payload", "n_rows", "enqueued_at", "done", "result", "error")

    def __init__(self, payload, n_rows: int, enqueued_at: float) -> None:
        self.payload = payload
        self.n_rows = n_rows
        self.enqueued_at = enqueued_at
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None


class CrossRequestBatcher:
    """Coalesces concurrent matcher submissions into merged batches.

    *execute* runs one merged batch — a pair list or a columnar batch —
    through the engine's chunked + guarded execution path.  *observe_wait* and
    *count_merge* are optional metric hooks: seconds a slot spent
    buffered, and flushes that merged more than one submission.
    """

    def __init__(
        self,
        execute: Callable[[list | ColumnarPairBatch], np.ndarray],
        window_seconds: float,
        max_rows: int,
        observe_wait: Callable[[float], None] | None = None,
        count_merge: Callable[[int], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigurationError(
                f"window_seconds must be > 0, got {window_seconds}"
            )
        if max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        self.window_seconds = window_seconds
        self.max_rows = max_rows
        self._execute = execute
        self._observe_wait = observe_wait
        self._count_merge = count_merge
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: list[_Slot] = []
        self._pending_rows = 0

    # ------------------------------------------------------------------

    def submit(self, payload) -> np.ndarray:
        """Run *payload* (a pair list or a columnar batch) through a
        merged flush and return its rows of the merged result."""
        n_rows = (
            payload.n_rows
            if isinstance(payload, ColumnarPairBatch)
            else len(payload)
        )
        if n_rows == 0:
            return np.empty(0, dtype=np.float64)
        if n_rows >= self.max_rows:
            # Already a full batch: waiting could only add latency.
            return self._execute(payload)
        slot = _Slot(payload, n_rows, self._clock())
        with self._cond:
            self._pending.append(slot)
            self._pending_rows += n_rows
            leader = len(self._pending) == 1
            if not leader and self._pending_rows >= self.max_rows:
                self._cond.notify_all()
        if leader:
            self._lead(slot)
        else:
            slot.done.wait()
        if slot.error is not None:
            raise slot.error
        assert slot.result is not None
        return slot.result

    # ------------------------------------------------------------------

    def _lead(self, slot: _Slot) -> None:
        """Wait out the batch window, then drain and flush the buffer."""
        deadline = slot.enqueued_at + self.window_seconds
        with self._cond:
            while self._pending_rows < self.max_rows:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            bucket = self._pending
            self._pending = []
            self._pending_rows = 0
        self._flush(bucket)

    def _flush(self, bucket: list[_Slot]) -> None:
        """Execute the merged bucket and scatter results to every slot."""
        now = self._clock()
        if self._observe_wait is not None:
            for slot in bucket:
                self._observe_wait(now - slot.enqueued_at)
        if self._count_merge is not None and len(bucket) > 1:
            self._count_merge(1)
        pair_slots = [
            s for s in bucket if not isinstance(s.payload, ColumnarPairBatch)
        ]
        col_slots = [
            s for s in bucket if isinstance(s.payload, ColumnarPairBatch)
        ]
        try:
            if pair_slots:
                merged: list = []
                for s in pair_slots:
                    merged.extend(s.payload)
                self._scatter(pair_slots, self._execute(merged))
            if col_slots:
                merged_batch = ColumnarPairBatch.concat(
                    [s.payload for s in col_slots]
                )
                self._scatter(col_slots, self._execute(merged_batch))
        except BaseException as error:  # noqa: BLE001 - relayed to waiters
            # A merged failure (guard trip, leader deadline, matcher
            # fault) fails every submission still waiting on this flush.
            for slot in bucket:
                if slot.result is None and slot.error is None:
                    slot.error = error
        finally:
            for slot in bucket:
                slot.done.set()

    @staticmethod
    def _scatter(slots: list[_Slot], merged: np.ndarray) -> None:
        offset = 0
        for slot in slots:
            slot.result = np.asarray(
                merged[offset : offset + slot.n_rows], dtype=np.float64
            )
            offset += slot.n_rows
