"""Multi-process sharded serving: routing, failover, supervision, drain.

These tests start real shard processes, forked from the fork server
that the first pipe shard of the session boots, so each later
``ShardedService`` boot costs a fraction of a second.  They stay cheap
by sharing one trained matcher (the session ``beer_matcher`` fixture
pickles cleanly) and tiny perturbation budgets.

Shard faults are injected from outside, as an operator or the kernel
would: ``SIGKILL`` on the pid that ``health()`` reports, while a request
is in flight on a :class:`~repro.testing.faults.SlowMatcher`, or
``SIGSTOP`` for a shard that is alive but silent.
"""

from __future__ import annotations

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import popen_forkserver
from pathlib import Path

import pytest

from repro.config import ServiceConfig, ShardConfig
from repro.exceptions import ConfigurationError, ShardFailedError
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service import (
    ExplainRequest,
    ExplanationService,
    ShardedService,
)
from repro.service.store import shard_store_dir
from repro.service.transport import (
    _PRELOAD,
    _ShardPopen,
    _ensure_fork_server,
)
from repro.testing.faults import SlowMatcher

SAMPLES = 24

#: Fast supervision for tests: heartbeats every 50ms, death declared
#: after 1.5s of silence, restarts after 0.2s.
FAST = dict(
    heartbeat_interval=0.05,
    heartbeat_timeout=1.5,
    check_interval=0.05,
    restart_backoff_base=0.2,
    restart_backoff_max=1.0,
)


def _request(pair, **overrides) -> ExplainRequest:
    defaults = dict(pair=pair, method="single", samples=SAMPLES, seed=0)
    defaults.update(overrides)
    return ExplainRequest(**defaults)


def _request_for_shard(service, dataset, shard_id, **overrides):
    """A request whose key routes to *shard_id* with every shard live."""
    for pair in dataset:
        request = _request(pair, **overrides)
        if service.shard_for(request) == shard_id:
            return request
    raise AssertionError(f"no record routes to shard {shard_id}")


@pytest.fixture
def slow_matcher(beer_matcher):
    """Every matcher call sleeps, so a kill lands mid-request."""
    return SlowMatcher(beer_matcher, delay=0.2)


def _signal_shard(service, shard_id, signum=signal.SIGKILL) -> None:
    """Send *signum* to the shard process whose pid ``health()`` reports."""
    os.kill(service.health()[1]["shards"][str(shard_id)]["pid"], signum)


def _router_counter(service, name: str) -> float:
    return sum(
        value
        for family in service.metrics.collect()
        if family["name"] == name
        for _, value in family["samples"]
    )


def _parent_pid(pid: int) -> int:
    """The parent pid of *pid*, from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name: state, then ppid.
    return int(stat.rsplit(")", 1)[1].split()[1])


def _wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestBitIdentity:
    def test_sharded_result_equals_single_process(
        self, beer_matcher, non_match_pair
    ):
        request = _request(non_match_pair, method="both")
        with ExplanationService(beer_matcher) as single:
            expected = single.explain(request)
        with ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=2, **FAST)
        ) as sharded:
            got = sharded.explain(request, timeout=120)
        assert got == expected

    def test_single_shard_mode_serves(self, beer_matcher, match_pair):
        with ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=1, **FAST)
        ) as service:
            payload = service.explain(_request(match_pair), timeout=120)
        assert payload["duals"]["single"]


class TestRoutingAndStores:
    def test_equal_keys_route_to_one_shard(self, beer_matcher, beer_dataset):
        with ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=2, **FAST)
        ) as service:
            request = _request(beer_dataset[0])
            owner = service.shard_for(request)
            futures = [service.submit(request) for _ in range(3)]
            results = [f.result(timeout=120) for f in futures]
            assert all(r == results[0] for r in results)
            stats = service.stats_payload()
        other = str(1 - owner)
        assert stats["shards"][str(owner)]["service"]["requests"] == 3
        assert stats["shards"][other]["service"]["requests"] == 0

    def test_each_shard_owns_its_store_partition(
        self, beer_matcher, beer_dataset, tmp_path
    ):
        store_root = tmp_path / "store"
        with ShardedService(
            beer_matcher,
            store_dir=store_root,
            shard_config=ShardConfig(n_shards=2, **FAST),
        ) as service:
            for shard_id in (0, 1):
                request = _request_for_shard(service, beer_dataset, shard_id)
                service.explain(request, timeout=120)
        for shard_id in (0, 1):
            partition = shard_store_dir(store_root, shard_id)
            assert partition.is_dir(), f"shard {shard_id} partition missing"

    def test_metrics_roll_up_with_shard_labels(self, beer_matcher, match_pair):
        with ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=2, **FAST)
        ) as service:
            service.explain(_request(match_pair), timeout=120)
            text = service.metrics_text()
            document = service.metrics_json()
        assert 'shard="router"' in text
        assert 'shard="0"' in text and 'shard="1"' in text
        labels = {
            sample["labels"].get("shard")
            for family in document["metrics"]
            for sample in family["samples"]
        }
        assert {"router", "0", "1"} <= labels


#: ``stats_payload()["router"]`` key of each router family.
ROUTER_KEYS = {
    "repro_router_requests": "requests",
    "repro_router_failovers": "failovers",
    "repro_router_requests_failed": "requests_failed",
    "repro_shards_live": "live",
    "repro_shard_deaths": "deaths",
    "repro_shard_restarts": "restarts",
    "repro_shard_connect_failures": "connect_failures",
    "repro_shard_reconnects": "reconnects",
    "repro_hosts_lost": "hosts_lost",
}


class TestRouterStats:
    def test_stats_op_reads_what_metrics_exports(self, beer_matcher):
        with ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=2, **FAST)
        ) as service:
            _signal_shard(service, 0)
            assert _wait_for(
                lambda: service.stats.restarts == 1
                and service.health()[1]["shards"]["0"]["state"] == "live"
            )
            stats = service.stats
            router = service.stats_payload()["router"]
            samples = {
                ROUTER_KEYS[family["name"]]: value
                for family in service.metrics.collect()
                if family["name"] in ROUTER_KEYS
                for _, value in family["samples"]
            }
        assert stats.restarts == 1
        assert stats.deaths == 1
        assert stats.live == 2
        assert set(samples) == set(ROUTER_KEYS.values())
        assert {key: router[key] for key in samples} == samples
        assert router["n_shards"] == 2
        assert "restarts 1" in stats.summary()


class TestCrashFailover:
    def test_worker_crash_fails_over_and_restarts(
        self, slow_matcher, beer_dataset
    ):
        with ShardedService(
            slow_matcher,
            shard_config=ShardConfig(n_shards=2, **FAST),
        ) as service:
            request = _request_for_shard(service, beer_dataset, 0)
            # The kill strands this request on shard 0; the supervisor
            # must fail it over to shard 1, which serves it.
            future = service.submit(request)
            _signal_shard(service, 0)
            payload = future.result(timeout=120)
            assert payload["duals"]["single"]
            assert _router_counter(service, "repro_router_failovers") >= 1

            # The supervisor restarts shard 0 and the fleet reports
            # healthy again.
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["state"] == "live"
            )
            status, health = service.health()
            assert status == 200
            assert health["shards"]["0"]["restarts"] == 1

            # The restarted shard serves its own keys again.
            again = service.submit(request).result(timeout=120)
            assert again == payload

    def test_failover_budget_exhausted_is_retryable_503(
        self, slow_matcher, beer_dataset
    ):
        # Both shards die under the in-flight request and restarts are
        # slow, so the single failover attempt also dies: the waiter
        # must get the retryable taxonomy error, never a hang.
        with ShardedService(
            slow_matcher,
            shard_config=ShardConfig(
                n_shards=2,
                heartbeat_interval=0.05,
                heartbeat_timeout=1.5,
                check_interval=0.05,
                restart_backoff_base=30.0,
                max_failovers=1,
            ),
        ) as service:
            request = _request(beer_dataset[0])
            future = service.submit(request)
            _signal_shard(service, 0)
            _signal_shard(service, 1)
            with pytest.raises(ShardFailedError) as excinfo:
                future.result(timeout=120)
            assert excinfo.value.code == "shard_failed"

    def test_no_live_shards_rejects_submissions_retryably(
        self, slow_matcher, beer_dataset
    ):
        with ShardedService(
            slow_matcher,
            shard_config=ShardConfig(
                n_shards=1,
                heartbeat_interval=0.05,
                heartbeat_timeout=1.5,
                check_interval=0.05,
                restart_backoff_base=30.0,
            ),
        ) as service:
            future = service.submit(_request(beer_dataset[0]))
            _signal_shard(service, 0)
            with pytest.raises(ShardFailedError):
                future.result(timeout=120)
            # The only shard is dead and backing off: health is a 503
            # (down, not degraded) and new submissions fail fast.
            assert _wait_for(lambda: service.health()[0] == 503)
            status, health = service.health()
            assert health["reason"] == "no_live_shards"
            with pytest.raises(ShardFailedError):
                service.submit(_request(beer_dataset[1]))


class TestSupervision:
    def test_heartbeat_stall_is_detected_and_restarted(
        self, beer_matcher, match_pair
    ):
        with ShardedService(
            beer_matcher,
            shard_config=ShardConfig(n_shards=1, **FAST),
        ) as service:
            # A stopped shard is alive but silent: only the missed
            # heartbeats give it away.  The supervisor declares it hung,
            # SIGKILLs it (which reaps a stopped process too) and
            # restarts it.
            _signal_shard(service, 0, signal.SIGSTOP)
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["restarts"] >= 1
            )
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["state"] == "live"
            )
            payload = service.explain(_request(match_pair), timeout=120)
            assert payload["duals"]["single"]

    def test_supervisor_never_forks_itself(self, beer_matcher, monkeypatch):
        # The supervisor is threaded, and forking it could carry a held
        # lock into the child.  Shards start and restart from the fork
        # server, so the supervisor process itself never calls fork().
        def refuse_fork():
            raise AssertionError("the supervisor process forked")

        monkeypatch.setattr(os, "fork", refuse_fork)
        shard_config = ShardConfig(
            n_shards=2, ready_timeout=20, **{**FAST, "restart_backoff_base": 0.05}
        )
        with ShardedService(beer_matcher, shard_config=shard_config) as service:
            shards = service.health()[1]["shards"]
            server = _parent_pid(shards["0"]["pid"])
            # Both shards fork from one server, which is not this process.
            assert server != os.getpid()
            assert _parent_pid(shards["1"]["pid"]) == server
            _signal_shard(service, 0)
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["restarts"] == 1
            )
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["state"] == "live"
            )
            # The restart forks from the same warm server: none rebooted.
            restarted = service.health()[1]["shards"]["0"]["pid"]
            assert _parent_pid(restarted) == server

    def test_one_sick_shard_reads_degraded_not_down(
        self, slow_matcher, beer_dataset
    ):
        with ShardedService(
            slow_matcher,
            shard_config=ShardConfig(
                n_shards=2,
                heartbeat_interval=0.05,
                heartbeat_timeout=1.5,
                check_interval=0.05,
                restart_backoff_base=30.0,
            ),
        ) as service:
            request = _request_for_shard(service, beer_dataset, 0)
            future = service.submit(request)
            _signal_shard(service, 0)
            future.result(timeout=120)
            assert _wait_for(
                lambda: service.health()[1]["shards"]["0"]["state"] != "live"
            )
            status, health = service.health()
            # One dead shard (in restart backoff): degraded, still 200.
            assert status == 200
            assert health["ok"] is True
            assert "0" in health.get("degraded", [])
            # The live shard keeps serving its keys.
            other = _request_for_shard(service, beer_dataset, 1)
            assert service.explain(other, timeout=120)


#: Run under ``python -S`` with no ``PYTHONPATH``: numpy and ``repro``
#: are importable only through the ``sys.path`` entries added at run
#: time, so a fork server that ignored the parent's path could preload
#: neither.  Prints the environment check and the probe's report.
_PRELOAD_SCRIPT = """
import json, multiprocessing, os, pickle, site, sys
sys.path.append({src!r})
sys.path.extend(site.getsitepackages())

from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service.shard import ShardSpec
from repro.service.transport import PipeShardTransport

PROBE = (
    "import json, sys; print('probe ' + json.dumps(sorted("
    "m for m in {preload!r} if m in sys.modules"
    ")), flush=True)"
)

if __name__ == "__main__":
    matcher = LogisticRegressionMatcher().fit(
        load_dataset("S-BR", seed=0, size_cap=60)
    )
    environ = dict(os.environ)
    transport = PipeShardTransport()
    conn = transport.launch(
        ShardSpec(shard_id=0, matcher_blob=pickle.dumps(matcher))
    )
    print("environ " + json.dumps(dict(os.environ) == environ), flush=True)
    while conn.recv().get("kind") != "ready":
        pass
    # exec imports nothing from repro: the probe sees only what the
    # server preloaded before forking it.
    probe = multiprocessing.get_context("forkserver").Process(
        target=exec, args=(PROBE,)
    )
    probe.start()
    probe.join(60)
    transport.kill()
    transport.join(10)
"""


#: A parent module that records each run of itself, starts two shards,
#: has one SIGKILLed and restarted, and closes the fleet.
_MAIN_MARKER_SCRIPT = """
import os, signal, time

with open({marker!r}, "a") as handle:
    handle.write(__name__ + "\\n")

from repro.config import ShardConfig
from repro.data.synthetic.magellan import load_dataset
from repro.matchers.logistic import LogisticRegressionMatcher
from repro.service import ShardedService

if __name__ == "__main__":
    matcher = LogisticRegressionMatcher().fit(
        load_dataset("S-BR", seed=0, size_cap=60)
    )
    config = ShardConfig(
        n_shards=2, heartbeat_interval=0.05, heartbeat_timeout=1.5,
        check_interval=0.05, restart_backoff_base=0.05,
    )
    with ShardedService(matcher, shard_config=config) as service:
        def shard():
            return service.health()[1]["shards"]["0"]

        os.kill(shard()["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not (shard()["restarts"] == 1 and shard()["state"] == "live"):
            assert time.monotonic() < deadline, "shard 0 never restarted"
            time.sleep(0.02)
"""


#: A parent that adds the import probe to the fork server's preloads,
#: then starts one pipe shard per CLI matcher in turn and waits for its
#: ``ready``.  Every matcher but the embedding one (whose first
#: prediction imports scipy) then computes a LIME and a SHAP
#: explanation.  Prints each shard's matcher and pid; the probe prints
#: what the shard imported since the fork at each message it sends.
_FORK_IMPORTS_SCRIPT = """
import json, pickle

from repro.cli import _MATCHERS
from repro.data.synthetic.magellan import load_dataset
from repro.service import transport
from repro.service.request import ExplainRequest
from repro.service.shard import ShardSpec

transport._PRELOAD.append({probe!r})


def receive(conn, kind, rid=None):
    while True:
        message = conn.recv()
        if message.get("kind") == kind and message.get("id") == rid:
            return message


if __name__ == "__main__":
    dataset = load_dataset("S-BR", seed=0, size_cap=60)
    for name, matcher_class in _MATCHERS.items():
        matcher = matcher_class().fit(dataset)
        shard = transport.PipeShardTransport()
        conn = shard.launch(
            ShardSpec(shard_id=0, matcher_blob=pickle.dumps(matcher))
        )
        receive(conn, "ready")
        if name != "embedding":
            for rid, explainer in enumerate(("lime", "shap")):
                request = ExplainRequest(
                    dataset.pairs[0], samples=32, explainer=explainer
                )
                conn.send({{"kind": "request", "id": rid, "request": request}})
                assert receive(conn, "response", rid)["ok"]
        print("shard " + json.dumps([name, shard.pid]), flush=True)
        shard.kill()
        shard.join(10)
"""


class TestForkServer:
    def test_server_preloads_what_the_parent_found_at_run_time(
        self, tmp_path
    ):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {
            key: value for key, value in os.environ.items()
            if key != "PYTHONPATH"
        }
        result = subprocess.run(
            [
                sys.executable, "-S", "-c",
                _PRELOAD_SCRIPT.format(src=str(src), preload=tuple(_PRELOAD)),
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = dict(
            line.split(" ", 1) for line in result.stdout.splitlines()
        )
        assert json.loads(lines["environ"]) is True
        assert json.loads(lines["probe"]) == sorted(_PRELOAD)

    def test_a_forked_shard_imports_nothing_after_the_fork(self, tmp_path):
        # Each module a shard imports after the fork is start time paid
        # again by every new or restarted shard; the server pays it once.
        root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [
                sys.executable, "-c",
                _FORK_IMPORTS_SCRIPT.format(probe=f"{__package__}.fork_probe"),
            ],
            cwd=tmp_path,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
            },
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        shards: dict[int, str] = {}
        reports: list[tuple[int, str, list[str]]] = []
        for line in result.stdout.splitlines():
            tag, _, body = line.partition(" ")
            if tag == "shard":
                name, pid = json.loads(body)
                shards[pid] = name
            elif tag == "fork-probe":
                reports.append(tuple(json.loads(body)))
        imported: dict[str, dict[str, set[str]]] = {}
        for pid, kind, modules in reports:
            if kind in ("ready", "response"):
                imported.setdefault(shards[pid], {}).setdefault(
                    kind, set()
                ).update(modules)
        explained = {"ready": set(), "response": set()}
        assert imported == {
            "logistic": explained,
            "mlp": explained,
            "rules": explained,
            "boosted": explained,
            "embedding": {"ready": set()},
        }

    @pytest.mark.parametrize("launch", ["script", "module"])
    def test_shards_never_run_the_parents_main_module(self, tmp_path, launch):
        marker = tmp_path / "marker.txt"
        (tmp_path / "parent.py").write_text(
            _MAIN_MARKER_SCRIPT.format(marker=str(marker))
        )
        src = Path(__file__).resolve().parents[2] / "src"
        command = (
            ["parent.py"] if launch == "script" else ["-m", "parent"]
        )
        result = subprocess.run(
            [sys.executable, *command],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # Two starts and a restart, and only the parent ran the module.
        assert marker.read_text().splitlines() == ["__main__"]

    def test_a_matcher_from_the_launching_script_is_refused_at_once(
        self, beer_dataset, monkeypatch
    ):
        # No shard can import a class from the parent's ``__main__``; left
        # to the shards it would fail restart after restart until
        # ``ready_timeout``.
        class ScriptMatcher(LogisticRegressionMatcher):
            pass

        ScriptMatcher.__module__ = "__main__"
        ScriptMatcher.__qualname__ = "ScriptMatcher"
        monkeypatch.setattr(
            sys.modules["__main__"], "ScriptMatcher", ScriptMatcher,
            raising=False,
        )
        matcher = ScriptMatcher().fit(beer_dataset)
        started = time.monotonic()
        with pytest.raises(ConfigurationError, match=r"__main__\.ScriptMatcher"):
            ShardedService(
                matcher,
                shard_config=ShardConfig(n_shards=2, ready_timeout=30, **FAST),
            )
        assert time.monotonic() - started < 1.0

    def test_shard_launch_is_cpythons_without_the_main_module(self):
        ours = inspect.getsource(_ShardPopen._launch).splitlines()
        cpython = inspect.getsource(popen_forkserver.Popen._launch)
        assert [
            line for line in ours if "init_main_from_" not in line
        ] == cpython.splitlines()

    def test_concurrent_boots_restore_the_environment(self):
        # More launch threads than cores race through the boot helper,
        # switching often; a lost update would leave PYTHONPATH behind.
        environ = dict(os.environ)
        barrier = threading.Barrier(8)

        def boot():
            barrier.wait(timeout=30)
            for _ in range(20):
                _ensure_fork_server()

        threads = [threading.Thread(target=boot) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert dict(os.environ) == environ


class TestDrain:
    def test_close_resolves_every_waiter(self, beer_matcher, beer_dataset):
        config = ServiceConfig(n_workers=1)
        with ShardedService(
            beer_matcher,
            config=config,
            shard_config=ShardConfig(n_shards=2, **FAST),
        ) as service:
            futures = [
                service.submit(_request(beer_dataset[i])) for i in range(6)
            ]
            summary = service.close()
        assert summary["drained"] is True
        for future in futures:
            # Terminal, never hanging: a real payload or a retryable error.
            assert future.done()
            error = future.exception(timeout=0)
            assert error is None or isinstance(error, ShardFailedError)
        served = [f for f in futures if f.exception(timeout=0) is None]
        assert served, "drain should finish at least the admitted work"

    def test_closed_service_rejects_new_requests(
        self, beer_matcher, match_pair
    ):
        service = ShardedService(
            beer_matcher, shard_config=ShardConfig(n_shards=1, **FAST)
        )
        service.close()
        with pytest.raises(Exception):
            service.submit(_request(match_pair))
