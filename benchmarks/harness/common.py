"""Shared pieces of the harness: source-tree bootstrap, seeded input
selection, the measured window, samples and the workload outcome."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import statistics
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parents[1]
SRC = ROOT / "src"

#: Every request the harness sends: the paper's dual explanation with
#: LIME at the perturbation budget ROADMAP fixes.
REQUEST = {"method": "both", "samples": 256, "explainer": "lime", "seed": 0}

#: Version of the result JSON layout.
SCHEMA = "harness-result/1"

#: Wall-time metrics that did not repeat within a 10% bound over two full
#: sets of runs of one commit (two sets of seeds 1-10 and two of seed 0,
#: 5 runs each, per workload) on a 2-core VM whose host speed drifted by
#: up to 25% between sets.  "16 sets" below are those 4 sets times 4
#: workloads.  They are left out of ``BENCHMARK.json``; each
#: result writes them under ``report_only`` with the spread measured, and
#: ``compare.py --pairs`` judges gains on them.
DEMOTED = {
    "throughput_per_s": {
        "unit": "1/s", "better": "higher",
        "spread": "quartile spread above 10% in 7 of 16 sets (max 29.0%, "
                  "fleet); set medians moved up to 13.1% (fleet)",
    },
    "p50_ms": {
        "unit": "ms", "better": "lower",
        "spread": "quartile spread above 10% in 12 of 16 sets (max 28.1%, "
                  "fleet); set medians moved up to 25.7% (serve)",
    },
    "p95_ms": {
        "unit": "ms", "better": "lower",
        "spread": "quartile spread above 10% in 13 of 16 sets (max 31.2%, "
                  "explain); set medians moved up to 24.4% (bulk)",
    },
    "hit_p50_ms": {
        "unit": "ms", "better": "lower",
        "spread": "quartile spread above 10% in 11 of 16 sets (max 28.2%, "
                  "fleet); set medians moved up to 24.5% (serve)",
    },
    "miss_p50_ms": {
        "unit": "ms", "better": "lower",
        "spread": "quartile spread above 10% in 12 of 16 sets (max 38.4%, "
                  "fleet); set medians moved up to 23.8% (serve)",
    },
}

#: The synthetic corpora are generated with this seed in every run, so the
#: trained model is the same on every run; ``--seed`` varies only which
#: records are requested, in which order and when.
DATASET_SEED = 0


def use_source_tree() -> bool:
    """Put ``src/`` on ``sys.path``; False when the checkout has no package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` for measurements, :data:`SMOKE` for tests."""

    setups: int = 5
    explain_pairs: int = 120
    hot: int = 32
    bulk_groups: int = 3
    chunk_size: int = 16
    check_pairs: int = 8


FULL = Scale()
SMOKE = Scale(setups=1, explain_pairs=8, hot=4, bulk_groups=1, chunk_size=4,
              check_pairs=4)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    scratch: Path


def draw(seed: int, purpose: str) -> np.random.Generator:
    """An independent seeded stream for one use of the workload seed."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


#: An entity with this many tokens makes its single-entity fit need every
#: mask of its hypercube (2**8 - 1 = samples - 1), the sampler's costliest
#: case: such records explain about 1.5x slower than their neighbours.
SATURATING_TOKENS = 8


def cost_class(pair) -> tuple[int, int]:
    """(entities at :data:`SATURATING_TOKENS`, total tokens): whitespace
    counts that predict how much work a record's explanation takes.  It is
    computed here, not by the program, so inputs do not change with it."""
    counts = [
        sum(len(str(value).split()) for value in entity.values())
        for entity in (pair.left, pair.right)
    ]
    return counts.count(SATURATING_TOKENS), sum(counts)


def spread_order(dataset, rows, rng: np.random.Generator, strata: int = 32):
    """Dataset *rows* in a seeded order whose every prefix is spread over
    record costs.

    Rows are ranked by :func:`cost_class` and cut into *strata* equal
    bands; the order takes one row from each band per round.  Any prefix
    therefore holds nearly the same mix of cheap and costly records
    whatever the seed, which keeps latency medians from drifting with it.
    """
    ranked = sorted(rows, key=lambda row: (cost_class(dataset.pairs[row]), row))
    n = len(ranked)
    strata = max(1, min(strata, n))
    bands = [ranked[k * n // strata:(k + 1) * n // strata] for k in range(strata)]
    for band in bands:
        rng.shuffle(band)
    bands = [bands[k] for k in rng.permutation(len(bands))]
    order = []
    for position in range(max(len(band) for band in bands)):
        order.extend(band[position] for band in bands if position < len(band))
    return order


def build_system(name: str, size_cap: int | None):
    """The corpus, a trained matcher and its fingerprint."""
    from repro.core.serialize import matcher_fingerprint
    from repro.data.synthetic.magellan import load_dataset
    from repro.matchers.logistic import LogisticRegressionMatcher

    dataset = load_dataset(name, seed=DATASET_SEED, size_cap=size_cap)
    matcher = LogisticRegressionMatcher().fit(dataset)
    return dataset, matcher, matcher_fingerprint(matcher)


def cold_copy(matcher):
    """The same model with empty feature memo caches (pickling drops them),
    so a rep does not reuse features an earlier rep computed."""
    return pickle.loads(pickle.dumps(matcher))


def timed(build, times: int):
    """Run *build* *times* times; returns (last result, each duration)."""
    durations = []
    result = None
    for _ in range(times):
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    return result, durations


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(payloads) -> str:
    """SHA-256 over the canonical bytes of *payloads*, in order."""
    hasher = hashlib.sha256()
    for payload in payloads:
        hasher.update(canonical(payload))
    return hasher.hexdigest()


def reference_payloads(matcher, fingerprint, pairs) -> list[dict]:
    """Payloads computed in-process, one fresh engine, in *pairs* order."""
    from repro.core.engine import PredictionEngine
    from repro.service.request import ExplainRequest, request_key
    from repro.service.service import compute_explanation_payload

    engine = PredictionEngine(matcher)
    payloads = []
    for pair in pairs:
        request = ExplainRequest(pair=pair, **REQUEST)
        payloads.append(
            compute_explanation_payload(
                matcher, engine, fingerprint,
                request_key(fingerprint, request), request,
            )
        )
    return payloads


class Window:
    """The measured window of one run.

    It lasts ``seconds`` and ends only once ``min_ops`` operations are
    done, so output checks always have data.  A traced run switches from
    phase 0 (untraced) to phase 1 (traced) at the midpoint and ends only
    after at least one traced operation; :meth:`switch_due` is true
    exactly once, for the caller that must install the tracing.
    """

    def __init__(self, seconds: float, traced: bool, min_ops: int = 1) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds
        self.traced = traced
        self.mid = self.start + seconds / 2 if traced else math.inf
        self.min_ops = min_ops
        self.switched_at: float | None = None
        self._ops_at_switch = 0
        self._lock = threading.Lock()

    @property
    def phase(self) -> int:
        return 0 if self.switched_at is None else 1

    def switch_due(self, ops: int) -> bool:
        now = time.perf_counter()
        with self._lock:
            if self.switched_at is None and now >= self.mid:
                self.switched_at = now
                self._ops_at_switch = ops
                return True
        return False

    def over(self, ops: int) -> bool:
        if self.traced and (self.switched_at is None or ops <= self._ops_at_switch):
            return False
        return ops >= self.min_ops and time.perf_counter() >= self.end


@dataclass
class Sample:
    phase: int
    hit: bool
    seconds: float
    #: A request sent only to time a cache hit, outside the workload's own
    #: stream: it counts for ``hit_p50_ms`` and nothing else.
    probe: bool = False


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    parameters: dict
    setup_s: list[float]
    samples: list[Sample]
    #: Work completed per second, per phase.
    throughput: dict[int, float]
    attempted: int
    failed: int
    checks: list[Check]
    weight_digest: str
    #: Predictions the matcher computed for the window's requests (the
    #: engine's ``calls_issued``): cache, dedup and store hits are free.
    matcher_rows: int
    #: Reasons the measurement must not be used (empty when valid).
    invalid: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    #: Traced runs only: per-layer metrics of phase 1.
    layer_metrics: dict | None = None
    layers: dict | None = None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def trace_overhead(samples) -> dict:
    """``trace.overhead_ratio``: traced p50 over untraced p50 (empty
    unless the run had both phases)."""
    untraced = [s.seconds for s in samples if s.phase == 0 and not s.probe]
    traced = [s.seconds for s in samples if s.phase == 1 and not s.probe]
    if not untraced or not traced:
        return {}
    return {"trace.overhead_ratio": percentile(traced, 50) / percentile(untraced, 50)}


def median_rate(windows) -> float:
    """Median of ``count / seconds`` over ``(seconds, count)`` windows: a
    burst of machine noise slows a few windows, not the median."""
    return statistics.median(count / seconds for seconds, count in windows)


def busy_windows(durations: list[float], windows: int = 8) -> list[tuple]:
    """Consecutive requests of a closed loop cut into ``(seconds, count)``."""
    windows = max(1, min(windows, len(durations)))
    return [
        (float(part.sum()), len(part))
        for part in np.array_split(np.asarray(durations), windows)
    ]


def environment() -> dict:
    """Machine facts every result records; < 2 cores is not comparable."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "nproc": cores,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "comparable": cores >= 2,
    }


def _children() -> list[int]:
    """Process ids whose parent is this process, zombies included (read
    from ``/proc``; empty where there is none)."""
    me = os.getpid()
    found = []
    try:
        entries = list(os.scandir("/proc"))
    except OSError:
        return found
    for entry in entries:
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; the parent id
        # is the second field after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Spawned shard processes leave multiprocessing's resource tracker
    behind: it would exit only after this process, and nobody would reap
    it.  It is stopped and reaped here; any other child still left gets
    SIGTERM, then SIGKILL after *grace* seconds, and is reaped too.
    """
    import signal
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    while (pids := _children()) and time.monotonic() < deadline + grace:
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
