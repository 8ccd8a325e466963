"""Fault-injection wrappers around real matchers.

The fault-tolerance machinery (matcher guard, failure ledger,
checkpoint/resume) is only trustworthy if it is exercised against actual
faults, so these wrappers turn any fitted :class:`~repro.matchers.base.
EntityMatcher` into a misbehaving one on a *deterministic, seeded
schedule*:

* :class:`FlakyMatcher` raises on a seeded fraction of calls — transient
  failures the guard should retry away, or (above the trip threshold)
  convert into circuit-breaker trips.
* :class:`SlowMatcher` sleeps before a seeded fraction of calls — hangs
  the guard's call timeout should cut short.

Determinism matters: a test that kills a run at cell K and resumes it
must see the *same* fault schedule both times to compare results, so the
schedule depends only on the seed and the call index, never on wall time
or global RNG state.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence

import numpy as np

from repro.data.records import EMDataset, RecordPair
from repro.matchers.base import EntityMatcher


class MatcherFault(RuntimeError):
    """The transient failure :class:`FlakyMatcher` injects."""


class FaultSchedule:
    """A seeded, call-indexed schedule of faults.

    ``should_fail(index)`` is a pure function of ``(seed, index)``: the
    n-th matcher call either always faults or never does, regardless of
    retries, process restarts or interleaving — which is exactly what
    retry logic needs (a retried call gets a *new* index and therefore a
    fresh draw).
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed

    def should_fail(self, index: int) -> bool:
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        # Integer seed derivation: tuples would go through hash(), which
        # PYTHONHASHSEED randomizes across processes.
        return random.Random((self.seed + 1) * 1_000_003 + index).random() < self.rate


class _FaultyBase(EntityMatcher):
    """Shared delegation plumbing: wrap a matcher, count calls."""

    def __init__(self, inner: EntityMatcher) -> None:
        self.inner = inner
        self.calls = 0

    def fit(self, dataset: EMDataset) -> "EntityMatcher":
        self.inner.fit(dataset)
        return self

    def __getattr__(self, name: str):
        # Delegate everything else (attribute_weights, describe, ...) so
        # the wrapper is a drop-in replacement inside the runner.  An
        # instance without ``inner`` yet (mid-unpickle) delegates nothing,
        # so wrappers cross the pickle boundary to shard processes.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class FlakyMatcher(_FaultyBase):
    """Raises :class:`MatcherFault` on a seeded fraction of calls."""

    def __init__(
        self,
        inner: EntityMatcher,
        fail_rate: float = 0.2,
        seed: int = 0,
        *,
        fail_first: int = 0,
    ) -> None:
        """*fail_first* forces the first N calls to fail unconditionally —
        handy for driving the circuit breaker to a trip deterministically.
        """
        super().__init__(inner)
        self.schedule = FaultSchedule(fail_rate, seed=seed)
        self.fail_first = fail_first
        self.faults = 0

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        index = self.calls
        self.calls += 1
        if index < self.fail_first or self.schedule.should_fail(index):
            self.faults += 1
            raise MatcherFault(f"injected fault on call #{index}")
        return self.inner.predict_proba(pairs)


class SlowMatcher(_FaultyBase):
    """Sleeps for *delay* seconds before a seeded fraction of calls."""

    def __init__(
        self,
        inner: EntityMatcher,
        delay: float = 0.5,
        slow_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(inner)
        self.delay = delay
        self.schedule = FaultSchedule(slow_rate, seed=seed)
        self.slowed = 0

    def predict_proba(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        index = self.calls
        self.calls += 1
        if self.schedule.should_fail(index):
            self.slowed += 1
            time.sleep(self.delay)
        return self.inner.predict_proba(pairs)
