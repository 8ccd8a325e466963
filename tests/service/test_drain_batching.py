"""SIGTERM-style drain while workers' matcher batches are in flight:
every waiter must get a terminal response, never a hang."""

from __future__ import annotations

import threading

import pytest

from repro.config import ServiceConfig
from repro.exceptions import ReproError
from repro.service import ExplainRequest, ExplanationService

SAMPLES = 24


class GatedMatcher:
    """Delegates to a fitted matcher but blocks until released."""

    def __init__(self, matcher):
        self.matcher = matcher
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def predict_proba(self, pairs):
        self.calls += 1
        self.entered.set()
        if not self.release.wait(timeout=60):
            raise RuntimeError("gate never released")
        return self.matcher.predict_proba(pairs)

    def predict_one(self, pair):
        return float(self.predict_proba([pair])[0])


@pytest.fixture()
def gated_service(beer_matcher):
    gated = GatedMatcher(beer_matcher)
    service = ExplanationService(
        gated,
        config=ServiceConfig(
            n_workers=2,
            drain_timeout=60.0,
        ),
    )
    yield service, gated
    gated.release.set()
    service.close(drain=False)


def _requests(dataset, n):
    return [
        ExplainRequest(pair=dataset[i], method="single", samples=SAMPLES)
        for i in range(n)
    ]


def test_drain_finishes_inflight_batch_and_resolves_all_waiters(
    gated_service, beer_dataset
):
    service, gated = gated_service
    first, second = _requests(beer_dataset, 2)

    f1 = service.submit(first)
    f2 = service.submit(second)
    # Both workers are computing; at least one matcher batch is blocked
    # inside the gate.
    assert gated.entered.wait(timeout=30)

    done = threading.Event()
    summary = {}

    def close_service():
        summary.update(service.close(drain=True, drain_timeout=60.0))
        done.set()

    closer = threading.Thread(target=close_service, daemon=True)
    closer.start()
    # The drain is now waiting on the blocked batch.  Releasing the gate
    # must let both waiters finish with real payloads.
    gated.release.set()
    assert done.wait(timeout=60), "close(drain=True) hung on the batch"

    assert f1.result(timeout=1)["duals"]["single"]
    assert f2.result(timeout=1)["duals"]["single"]
    assert summary["drained"] is True


def test_drain_timeout_still_terminates_every_waiter(
    gated_service, beer_dataset
):
    service, gated = gated_service
    futures = [service.submit(r) for r in _requests(beer_dataset, 4)]
    assert gated.entered.wait(timeout=30)

    # The gate never opens within the budget: the drain gives up, but no
    # future may be left pending — each gets a terminal error.
    summary = service.close(drain=True, drain_timeout=0.3)
    gated.release.set()
    for future in futures:
        try:
            result = future.result(timeout=60)
        except ReproError:
            continue  # terminal taxonomy error: acceptable
        except Exception:
            continue  # cancelled: also terminal
        assert result["duals"]["single"]  # finished before the cutoff
    assert all(f.done() for f in futures)
    # The summary is honest about giving up on the blocked batch.
    assert summary["drained"] is False
