"""Benchmark: remote matcher backend vs in-process, parity and throughput.

Two questions about the backend layer, answered per matcher type:

* **parity** — explanation weights computed through a
  :class:`~repro.backends.client.RemoteBackend` (a real socket to a
  :class:`~repro.backends.server.MatcherServer` in the same host) must be
  **bit-identical** to the in-process explanation for every request;
* **throughput** — with the pipelined client keeping at least two
  batches in flight, remote prediction throughput must stay within
  ``--min-ratio`` (default 0.7×) of in-process throughput.  Pipelining
  is what makes this possible: round-trips overlap with server compute
  instead of serializing behind each other.

The parity check runs for *every* matcher type.  The throughput gate
runs on the embedding matcher — the heaviest model here, standing in
for the heavy matchers the shared-server deployment exists for — with
concurrent callers, the shape service workers actually produce.
Both arms run against one server, timed alternately in ``REPEATS``
pairs, and the gate reads the median of the pairs' ratios: a single
timing of the in-process arm moved by half between runs, more than the
gate's margin, and a slow spell of the host lands on both arms of a
pair.  On a
single-core machine the ratio is *reported* but not gated (the server
process has no core of its own, so transport overhead cannot overlap
with compute), mirroring ``bench_shards.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_remote_backend.py --smoke

``--smoke`` is the CI configuration (~1-2 min): 6 records per matcher,
32 samples, 300-pair dataset.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.backends.client import RemoteBackend, RemoteBackendConfig
from repro.backends.server import MatcherServer
from repro.core.columnar import pairs_batch
from repro.core.landmark import LandmarkExplainer
from repro.core.serialize import dual_digest
from repro.data.synthetic.magellan import load_dataset
from repro.explainers.lime_text import LimeConfig
from repro.matchers.boosting import GradientBoostedStumpsMatcher
from repro.matchers.embedding import EmbeddingMatcher
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.matchers.neural import MLPMatcher
from repro.matchers.rules import RuleBasedMatcher

#: Alternating (in-process, remote) timing pairs of the throughput gate.
REPEATS = 10

MATCHERS = {
    "logistic": LogisticRegressionMatcher,
    "mlp": MLPMatcher,
    "rules": RuleBasedMatcher,
    "boosted": GradientBoostedStumpsMatcher,
    "embedding": EmbeddingMatcher,
}


def _explain_all(matcher, pairs, samples: int, seed: int) -> list[str]:
    explainer = LandmarkExplainer(
        matcher,
        lime_config=LimeConfig(n_samples=samples, seed=seed),
        seed=seed,
    )
    return [dual_digest(explainer.explain(pair)) for pair in pairs]


def check_parity(name, matcher, pairs, samples, seed, config):
    """Digest-compare remote vs local explanations; returns mismatches."""
    local = _explain_all(matcher, pairs, samples, seed)
    with MatcherServer(matcher, workers=2) as server:
        backend = RemoteBackend(server.address, config=config)
        try:
            remote = _explain_all(backend, pairs, samples, seed)
        finally:
            backend.close()
    return sum(a != b for a, b in zip(local, remote))


def _drive(predict, batch, rounds: int, callers: int) -> float:
    """Seconds for *callers* threads to each predict *batch* x *rounds*."""
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for _ in range(rounds):
                predict(batch)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(callers)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started


def measure_throughput(matcher, pairs, rounds, chunk, callers, config):
    """Rows/second predicting *pairs*, in-process vs pipelined remote.

    Both sides score the same columnar batch, the one payload a backend
    call carries.  Concurrent callers mimic the service's worker threads;
    the server-max *chunk* forces every call to split into pipelined
    in-flight batches.  The arms alternate in ``REPEATS`` pairs against
    one server; the ratio is the median of the pairs' ratios and the
    rates are each arm's median.
    """
    batch = pairs_batch(list(pairs))
    local = matcher.predict_proba_columnar
    with MatcherServer(matcher, max_batch_size=chunk, workers=4) as server:
        backend = RemoteBackend(server.address, config=config)
        remote = backend.predict_proba_columnar
        try:
            # Connect, warm caches and verify parity outside the timing.
            assert np.array_equal(remote(batch), local(batch)), (
                "throughput batches diverged"
            )
            timings = [
                (_drive(local, batch, rounds, callers),
                 _drive(remote, batch, rounds, callers))
                for _ in range(REPEATS)
            ]
        finally:
            backend.close()
    in_flight = max(1, -(-batch.n_rows // chunk))  # ceil: chunks per call
    rows = batch.n_rows * rounds * callers
    return {
        "rows": rows,
        "callers": callers,
        "repeats": REPEATS,
        "in_flight_batches": min(in_flight, config.max_in_flight),
        "local_rows_per_s": rows / statistics.median(l for l, _ in timings),
        "remote_rows_per_s": rows / statistics.median(r for _, r in timings),
        "ratio": statistics.median(l / r for l, r in timings),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="S-BR")
    parser.add_argument("--records", type=int, default=12,
                        help="records explained per matcher type")
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--size-cap", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=40,
                        help="prediction rounds per caller thread")
    parser.add_argument("--chunk", type=int, default=64,
                        help="server max batch (forces pipelined chunks)")
    parser.add_argument("--callers", type=int, default=4,
                        help="concurrent caller threads (service workers)")
    parser.add_argument(
        "--min-ratio", type=float, default=0.7,
        help="required remote/in-process throughput ratio (exit 1 below "
             "it; only gated on machines with >= 2 CPU cores)",
    )
    parser.add_argument("--output", default=None,
                        help="write the run JSON (parity + timings) here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI scale: 6 records, 32 samples, 300 pairs, 20 rounds",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.records, args.samples = 6, 32
        args.size_cap, args.rounds = 300, 20

    config = RemoteBackendConfig(connect_timeout=10.0, call_timeout=120.0)
    dataset = load_dataset(args.dataset, seed=args.seed, size_cap=args.size_cap)
    pairs = list(dataset)[: args.records]
    failures = []
    parity = {}
    print(
        f"workload: {args.dataset}, {len(pairs)} records x "
        f"{len(MATCHERS)} matcher types, {args.samples} samples"
    )
    for name, cls in sorted(MATCHERS.items()):
        matcher = cls().fit(dataset)
        mismatched = check_parity(
            name, matcher, pairs, args.samples, args.seed, config
        )
        parity[name] = {"records": len(pairs), "mismatched": mismatched}
        verdict = "bit-identical" if not mismatched else f"{mismatched} DIFFER"
        print(f"parity[{name}]: {len(pairs)} explanations {verdict}")
        if mismatched:
            failures.append(
                f"{name}: {mismatched} remote explanations differ"
            )

    cores = os.cpu_count() or 1
    gated = cores >= 2
    throughput_pairs = (list(dataset) * 4)[: max(args.chunk * 4, 128)]
    matcher = EmbeddingMatcher().fit(dataset)
    throughput = measure_throughput(
        matcher, throughput_pairs, args.rounds, args.chunk,
        args.callers, config,
    )
    print(
        f"throughput: in-process {throughput['local_rows_per_s']:.0f} rows/s, "
        f"remote {throughput['remote_rows_per_s']:.0f} rows/s "
        f"({throughput['in_flight_batches']} batches in flight, "
        f"{args.callers} callers) -> ratio {throughput['ratio']:.2f}x, "
        f"median of {throughput['repeats']} pairs (required: {args.min_ratio}x, "
        f"{'gated' if gated else 'report-only on %d core(s)' % cores})"
    )
    if throughput["in_flight_batches"] < 2:
        failures.append("throughput workload kept < 2 batches in flight")
    if gated and throughput["ratio"] < args.min_ratio:
        failures.append(
            f"remote throughput {throughput['ratio']:.2f}x below "
            f"{args.min_ratio}x of in-process on a {cores}-core machine"
        )

    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(
            json.dumps(
                {
                    "workload": {
                        "dataset": args.dataset,
                        "records": len(pairs),
                        "samples": args.samples,
                        "rounds": args.rounds,
                        "chunk": args.chunk,
                        "callers": args.callers,
                        "min_ratio": args.min_ratio,
                        "cpu_cores": cores,
                        "ratio_gated": gated,
                    },
                    "parity": parity,
                    "throughput": {
                        key: round(value, 3) if isinstance(value, float)
                        else value
                        for key, value in throughput.items()
                    },
                },
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        print(f"wrote {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("bench_remote_backend", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
