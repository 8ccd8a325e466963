"""SIGTERM-style drain while workers' matcher batches are in flight:
every waiter must get a terminal response, never a hang."""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import ServiceConfig
from repro.exceptions import ReproError
from repro.service import ExplainRequest, ExplanationService, ExplanationStore
from repro.service import service as service_module

SAMPLES = 24
#: Scheduling slack on top of the drain budget and grace period.
SLACK = 2.0


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

    # The gate never opens within the budget: the drain gives up, waits
    # one grace period for the wedged workers, and returns anyway.  No
    # future may be left pending, even before the gate opens — each gets
    # a terminal error or its finished result.
    budget = 0.3
    started = time.monotonic()
    summary = service.close(drain=True, drain_timeout=budget)
    elapsed = time.monotonic() - started
    assert elapsed < budget + service_module._DRAIN_GRACE_SECONDS + SLACK
    assert all(f.done() for f in futures)
    assert summary["wedged_workers"] >= 1
    gated.release.set()
    for future in futures:
        try:
            result = future.result(timeout=0)
        except ReproError:
            continue  # terminal taxonomy error: acceptable
        except Exception:
            continue  # cancelled: also terminal
        assert result["duals"]["single"]  # finished before the cutoff
    # The summary is honest about giving up on the blocked batch.
    assert summary["drained"] is False


def test_a_wedged_worker_finishing_after_close_leaves_the_store_alone(
    beer_matcher, beer_dataset, tmp_path, monkeypatch
):
    # The owner closes the store once close() returns and opens the same
    # file again (a shard host's warm rebuild does exactly this).  A worker
    # that finishes only then must not write through the closed
    # connection: the failed write would quarantine the live file.
    monkeypatch.setattr(service_module, "_DRAIN_GRACE_SECONDS", 0.1)
    store = ExplanationStore(tmp_path / "store")
    service = ExplanationService(
        beer_matcher, store=store, config=ServiceConfig(n_workers=1)
    )
    entered, release = threading.Event(), threading.Event()

    def wedged_compute(key, request):
        entered.set()
        release.wait(timeout=60)
        return {"format_version": 1, "duals": {}}

    service._compute = wedged_compute
    future = service.submit(_requests(beer_dataset, 1)[0])
    assert entered.wait(timeout=30)
    summary = service.close(drain=False)
    assert summary["wedged_workers"] == 1
    assert future.done()
    store.close()
    reopened = ExplanationStore(tmp_path / "store")
    reopened.put("kept", {"value": 1})

    release.set()
    for worker in service._workers:
        worker.join(timeout=30)
        assert not worker.is_alive()
    assert not list((tmp_path / "store").glob("*.corrupt-*"))
    assert reopened.path.exists()
    assert reopened.get("kept") == {"value": 1}
    reopened.close()
