"""Experiment presets and the configuration of every subsystem.

The paper ran on a GPU VM with 100 records per label and full dataset
sizes.  On a plain CPU the same protocol is available as the ``paper``
preset; day-to-day runs and the benchmark suite use the ``fast`` preset,
which shrinks the sampled records, the perturbation budget and the dataset
sizes while keeping every qualitative shape of the results.

Every option is declared once, on its config field: a field operators set
from the command line carries its flag and help text (:func:`option`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields, is_dataclass

from repro.exceptions import ConfigurationError

if typing.TYPE_CHECKING:
    import argparse

#: Method identifiers used across the evaluation harness and tables.
METHOD_SINGLE = "single"
METHOD_DOUBLE = "double"
METHOD_LIME = "lime"
METHOD_MOJITO_COPY = "mojito_copy"
METHOD_MOJITO_ATTR_DROP = "mojito_attr_drop"

#: The paper's method grid (Tables 2-4).
PAPER_METHODS = (METHOD_SINGLE, METHOD_DOUBLE, METHOD_LIME, METHOD_MOJITO_COPY)
#: Everything the harness can evaluate (attribute-granular drop is an
#: extra Mojito mode the paper mentions but does not tabulate).
ALL_METHODS = PAPER_METHODS + (METHOD_MOJITO_ATTR_DROP,)


def option(default, flag: str, help: str):
    """A config field an operator sets on the command line with *flag*.

    The flag and its help text live on the field, so the option is
    declared once: :func:`add_config_arguments` builds the flag and
    :func:`config_from_namespace` reads it back.
    """
    return field(default=default, metadata={"flag": flag, "help": help})


@dataclass(frozen=True)
class GuardConfig:
    """Knobs of the matcher guard (:mod:`repro.core.guard`).

    The guard is *inactive* — a plain pass-through — unless ``max_retries``
    is positive or ``call_timeout`` is set.
    """

    max_retries: int = option(
        0, "--max-retries", "retry failing matcher calls up to N times (guard)"
    )
    call_timeout: float | None = option(
        None, "--call-timeout",
        "abandon a matcher call after this many seconds (guard)",
    )
    #: Consecutive failed attempts that trip the circuit open.
    trip_after: int = 5
    #: Guarded calls rejected fast while open, before a half-open probe.
    cooldown: int = 8
    #: Base backoff delay in seconds; attempt *k* waits up to
    #: ``backoff * 2**k`` (jittered, capped at ``backoff_max``).
    backoff: float = 0.05
    #: Upper bound on a single backoff sleep.
    backoff_max: float = 2.0
    #: Seed of the jitter stream (independent of every science RNG).
    seed: int = 0
    #: Engage the breaker/accounting even with no retries and no timeout.
    #: The remote client's breaker sets this: a transport fails on its own
    #: (connection refused, peer gone), even at zero retries.
    always_active: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ConfigurationError(
                f"call_timeout must be > 0, got {self.call_timeout}"
            )
        if self.trip_after < 1:
            raise ConfigurationError(
                f"trip_after must be >= 1, got {self.trip_after}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.backoff < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")

    @property
    def active(self) -> bool:
        """Whether any guarding (vs plain pass-through) is requested."""
        return (
            self.always_active
            or self.max_retries > 0
            or self.call_timeout is not None
        )


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the prediction engine (:mod:`repro.core.engine`).

    The engine always collapses identical rebuilt pairs inside one
    request and keeps an LRU of ``cache_size`` pair contents that
    persists across landmark sides, methods and evaluation stages;
    ``batch_size`` chunks matcher calls, which run in order on the
    calling thread.  A failing chunk fails the call; retries are the
    guard's job.

    Every matcher chunk goes through a
    :class:`~repro.core.guard.MatcherGuard` configured by ``guard``; with
    its defaults (no retries, no timeout) the guard is a plain
    pass-through and runs are bit-identical to unguarded ones.
    """

    cache_size: int = 100_000
    batch_size: int = 512
    guard: GuardConfig = field(default_factory=GuardConfig)

    def __post_init__(self) -> None:
        if self.cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full benchmark run depends on."""

    name: str = "custom"
    per_label: int = 100
    lime_samples: int = 256
    size_cap: int | None = None
    threshold: float = 0.5
    removal_fraction: float = 0.25
    seed: int = 0
    methods: tuple[str, ...] = PAPER_METHODS
    #: Mojito Copy is designed for non-match records; the paper only reports
    #: it on that label.  Set to True to evaluate it on matches as well.
    copy_on_match: bool = False
    #: Also compute the (extension) deletion-curve faithfulness gain per
    #: cell.  Costs ~40 extra model calls per explained record.
    faithfulness: bool = False
    #: Prediction engine and matcher guard.  Neither changes a result —
    #: the engine only saves matcher calls, and retries/timeouts only
    #: decide whether transient faults kill the run.
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.per_label < 1:
            raise ConfigurationError(f"per_label must be >= 1, got {self.per_label}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )
        if not 0.0 < self.removal_fraction < 1.0:
            raise ConfigurationError(
                f"removal_fraction must be in (0, 1), got {self.removal_fraction}"
            )
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigurationError(f"unknown methods: {unknown}")


@dataclass(frozen=True)
class StoreConfig:
    """Knobs of the persistent explanation store (:mod:`repro.service`).

    ``max_entries`` bounds the store; overflow evicts the least recently
    *accessed* explanations.  ``ttl_seconds`` expires entries by age at
    read time (``None`` = never).
    """

    max_entries: int = option(
        10_000, "--store-max-entries", "LRU capacity of the explanation store"
    )
    ttl_seconds: float | None = option(
        None, "--store-ttl",
        "expire stored explanations older than this many seconds",
    )
    #: Consecutive failed reads (checksum / JSON / SQLite errors) that
    #: mark the backing file systemically corrupt: the store quarantines
    #: it to ``*.corrupt-<ts>`` and rebuilds empty instead of failing.
    recover_after: int = 3

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ConfigurationError(
                f"ttl_seconds must be > 0, got {self.ttl_seconds}"
            )
        if self.recover_after < 1:
            raise ConfigurationError(
                f"recover_after must be >= 1, got {self.recover_after}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the explanation service (:mod:`repro.service`).

    ``n_workers`` threads drain a bounded priority queue of at most
    ``queue_size`` pending requests; a duplicate of an in-flight request
    always joins that request's computation.  None of these change a
    single bit of any explanation — only how requests are scheduled.

    The lifecycle knobs bound tail latency under overload: past either
    admission limit (``shed_threshold``, ``max_queue_wait``) ``submit``
    rejects with :class:`~repro.exceptions.ServiceOverloadedError`, and
    ``drain_timeout`` bounds a graceful ``close(drain=True)``.
    """

    n_workers: int = option(2, "--workers", "explanation worker threads")
    queue_size: int = option(
        256, "--queue-size", "bound of the pending-request priority queue"
    )
    shed_threshold: int | None = option(
        None, "--shed-threshold",
        "shed new requests (HTTP 429) once this many are queued",
    )
    max_queue_wait: float | None = option(
        None, "--max-queue-wait",
        "shed new requests once the estimated queue wait exceeds this many "
        "seconds",
    )
    default_deadline: float | None = option(
        None, "--deadline",
        "default per-request latency budget in seconds; a request past its "
        "deadline aborts between matcher chunks",
    )
    drain_timeout: float = option(
        30.0, "--drain-timeout",
        "seconds a graceful shutdown (SIGTERM / close) may spend finishing "
        "queued work before cancelling it",
    )

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {self.queue_size}"
            )
        if self.shed_threshold is not None and self.shed_threshold < 1:
            raise ConfigurationError(
                f"shed_threshold must be >= 1, got {self.shed_threshold}"
            )
        if self.max_queue_wait is not None and self.max_queue_wait <= 0:
            raise ConfigurationError(
                f"max_queue_wait must be > 0, got {self.max_queue_wait}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigurationError(
                f"default_deadline must be > 0, got {self.default_deadline}"
            )
        if self.drain_timeout < 0:
            raise ConfigurationError(
                f"drain_timeout must be >= 0, got {self.drain_timeout}"
            )


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of multi-process sharded serving (:mod:`repro.service`).

    ``n_shards`` worker *processes* each own a guarded prediction engine,
    a matcher and (when a store directory is configured) their own SQLite
    store partition.  Requests are routed onto shards by consistent
    hashing of the content-addressed request key (``virtual_nodes``
    positions per shard on the hash ring), so coalescing and store
    locality both survive the split.  Like every scheduling knob,
    sharding never changes a result bit: ``n_shards=1``
    routes everything through one shard whose inner loop is the exact
    single-process :class:`~repro.service.service.ExplanationService`.

    The supervisor half:

    * shards report liveness every ``heartbeat_interval`` seconds over
      the control pipe; a shard silent for ``heartbeat_timeout`` seconds
      is declared hung and killed;
    * a dead shard (crash, kill, hang) is restarted with capped
      exponential backoff — ``restart_backoff_base * 2**failures`` up to
      ``restart_backoff_max`` — and the failure count resets after the
      shard stays up ``backoff_reset_after`` seconds;
    * requests in flight on a dead shard fail over to the next live
      shard on the ring at most ``max_failovers`` times (so a poison
      request cannot cascade through the fleet) before failing with the
      retryable :class:`~repro.exceptions.ShardFailedError`.

    ``ready_timeout`` bounds how long a started shard may take to
    import, load its matcher and report ready — applied *per shard* from
    its own launch, so one slow starter cannot eat the whole fleet's
    budget.

    The remote-fleet knobs only matter when shards live on other hosts
    (``--fleet``); the pipe path ignores them:

    * ``connect_timeout`` bounds one TCP connect attempt to a remote
      shard; ``connect_budget`` bounds the whole capped-jittered-retry
      cycle of one launch before the launch is declared failed;
    * ``host_loss_after`` consecutive failed launch cycles against the
      same address reclassify the failure from *shard crash* (keep
      reconnecting with backoff) to *host loss* — the supervisor then
      replaces the shard id onto the next configured standby host.

    The health quorum of a remote fleet is a field of the fleet file
    (:class:`~repro.service.transport.FleetConfig`); a pipe fleet serves
    while any shard is live.
    """

    n_shards: int = option(
        1, "--shards",
        "worker processes, each owning a matcher, a prediction engine and "
        "its own store partition, fronted by a consistent-hash router and "
        "a supervising shard manager; 1 (the default) keeps the "
        "single-process service, bit-identical to previous releases",
    )
    virtual_nodes: int = option(
        64, "--virtual-nodes",
        "ring positions per shard on the consistent-hash router "
        "(only with --shards > 1)",
    )
    heartbeat_interval: float = option(
        0.5, "--heartbeat-interval", "seconds between shard liveness heartbeats"
    )
    heartbeat_timeout: float = option(
        5.0, "--heartbeat-timeout",
        "a shard silent this long is declared hung and restarted",
    )
    check_interval: float = 0.25
    ready_timeout: float = 120.0
    restart_backoff_base: float = option(
        0.5, "--restart-backoff",
        "base seconds of the capped exponential backoff between shard "
        "restarts",
    )
    restart_backoff_max: float = 30.0
    backoff_reset_after: float = 60.0
    max_failovers: int = option(
        1, "--max-failovers",
        "times an in-flight request may fail over to another shard after a "
        "crash before returning a retryable 503",
    )
    connect_timeout: float = option(
        5.0, "--connect-timeout",
        "per-attempt TCP dial timeout to a fleet shard host (only with "
        "--fleet)",
    )
    connect_budget: float = option(
        30.0, "--connect-budget",
        "total seconds of dial-with-retry per launch cycle before it counts "
        "as a failed connect (only with --fleet)",
    )
    host_loss_after: int = option(
        3, "--host-loss-after",
        "consecutive failed connect cycles before a fleet host is declared "
        "lost and replaced by a standby (only with --fleet)",
    )

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if self.check_interval <= 0:
            raise ConfigurationError(
                f"check_interval must be > 0, got {self.check_interval}"
            )
        if self.ready_timeout <= 0:
            raise ConfigurationError(
                f"ready_timeout must be > 0, got {self.ready_timeout}"
            )
        if self.restart_backoff_base < 0 or self.restart_backoff_max < 0:
            raise ConfigurationError(
                "restart_backoff_base and restart_backoff_max must be >= 0"
            )
        if self.restart_backoff_max < self.restart_backoff_base:
            raise ConfigurationError(
                f"restart_backoff_max ({self.restart_backoff_max}) must be "
                f">= restart_backoff_base ({self.restart_backoff_base})"
            )
        if self.backoff_reset_after <= 0:
            raise ConfigurationError(
                f"backoff_reset_after must be > 0, got {self.backoff_reset_after}"
            )
        if self.max_failovers < 0:
            raise ConfigurationError(
                f"max_failovers must be >= 0, got {self.max_failovers}"
            )
        if self.connect_timeout <= 0:
            raise ConfigurationError(
                f"connect_timeout must be > 0, got {self.connect_timeout}"
            )
        if self.connect_budget < self.connect_timeout:
            raise ConfigurationError(
                f"connect_budget ({self.connect_budget}) must be >= "
                f"connect_timeout ({self.connect_timeout})"
            )
        if self.host_loss_after < 1:
            raise ConfigurationError(
                f"host_loss_after must be >= 1, got {self.host_loss_after}"
            )


FAST = ExperimentConfig(
    name="fast",
    per_label=15,
    lime_samples=96,
    size_cap=1200,
)

PAPER = ExperimentConfig(
    name="paper",
    per_label=100,
    lime_samples=512,
    size_cap=None,
)

#: Tiny settings for the pytest-benchmark suite.
BENCH = ExperimentConfig(
    name="bench",
    per_label=6,
    lime_samples=48,
    size_cap=500,
)

PRESETS: dict[str, ExperimentConfig] = {
    "fast": FAST,
    "paper": PAPER,
    "bench": BENCH,
}


def get_preset(name: str) -> ExperimentConfig:
    """Look up a preset by name (``fast``, ``paper`` or ``bench``)."""
    try:
        return PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from exc


def add_config_arguments(
    parser: argparse.ArgumentParser, *config_classes: type
) -> None:
    """Add the flag of every :func:`option` field of *config_classes*.

    Every flag takes one value of its field's annotated type (``X | None``
    takes an ``X``) and stores under the field's name, where
    :func:`config_from_namespace` reads it back.  A ``bool`` option is
    refused: ``type=bool`` would read any non-empty value as true.
    """
    for cls in config_classes:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if "flag" not in f.metadata:
                continue
            flag = f.metadata["flag"]
            if isinstance(f.default, bool):
                raise ConfigurationError(
                    f"{cls.__name__}.{f.name}: option {flag} has a bool "
                    f"default, which a one-value flag cannot parse"
                )
            hint = hints[f.name]
            parser.add_argument(
                flag, dest=f.name, default=f.default,
                help=f.metadata["help"],
                type=next(
                    t for t in typing.get_args(hint) or (hint,)
                    if t is not type(None)
                ),
                metavar=flag.lstrip("-").replace("-", "_").upper(),
            )


def config_from_namespace(cls: type, args: argparse.Namespace):
    """Build *cls* from the flags :func:`add_config_arguments` parsed.

    A nested config field is built the same way.  A field whose flag the
    sub-command does not offer keeps its default, so every field still
    has exactly one default: its declaration.
    """
    values = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            values[f.name] = config_from_namespace(f.default_factory, args)
        elif "flag" in f.metadata and hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    return cls(**values)
