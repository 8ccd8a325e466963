"""Serving child of the harness's ``serve`` workload.

Runs one :class:`~repro.service.service.ExplanationService` (default
``ServiceConfig``, SQLite store in ``--store``) behind ``serve_http`` on an
ephemeral localhost port, prints ``ready <port>``, then obeys one command
per stdin line and answers each with one JSON line on stdout:

* ``stats`` — the service's ``stats_payload()``;
* ``trace`` — wrap the harness's layer sites (see ``layers.py``) and
  remember the counters, so ``dump`` reports the traced phase alone;
* ``dump`` — per-layer totals plus the counter deltas since ``trace``;
* ``quit`` (or end of input) — stop serving, drain and exit.

Usage::

    python benchmarks/harness/serve_child.py --artifact matcher.pkl \\
        --store DIR --dataset S-WA --size-cap 2000
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from common import DATASET_SEED, use_source_tree
from layers import Tracer, counter_delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True,
                        help="matcher artifact written by save_matcher")
    parser.add_argument("--store", required=True, help="store directory")
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--size-cap", type=int, default=None)
    args = parser.parse_args(argv)
    if not use_source_tree():
        print("serve_child: no src/repro package in this checkout",
              file=sys.stderr)
        return 2

    from repro.core.serialize import load_matcher
    from repro.data.synthetic.magellan import load_dataset
    from repro.service.server import serve_http
    from repro.service.service import ExplanationService
    from repro.service.store import ExplanationStore

    dataset = load_dataset(args.dataset, seed=DATASET_SEED,
                           size_cap=args.size_cap)
    store = ExplanationStore(args.store)
    service = ExplanationService(load_matcher(args.artifact), store=store)
    server = serve_http(service, dataset, port=0)
    serving = threading.Thread(target=server.serve_forever, name="http")
    serving.start()
    tracer = Tracer(sampled=frozenset({"server.handle_payload"}))
    baseline: dict = {}
    try:
        print(f"ready {server.server_address[1]}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "stats":
                reply = service.stats_payload()
            elif command == "trace":
                baseline = service.stats_payload()
                tracer.install()
                reply = {"traced": True}
            elif command == "dump":
                stats = service.stats_payload()
                reply = {
                    "layers": tracer.snapshot(),
                    "stats": {
                        section: counter_delta(stats[section],
                                               baseline.get(section))
                        for section in ("service", "store", "engine")
                    },
                }
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        tracer.uninstall()
        server.shutdown()
        server.server_close()
        serving.join(timeout=30)
        service.close()
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
