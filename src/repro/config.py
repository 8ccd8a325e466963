"""Experiment presets.

The paper ran on a GPU VM with 100 records per label and full dataset
sizes.  On a plain CPU the same protocol is available as the ``paper``
preset; day-to-day runs and the benchmark suite use the ``fast`` preset,
which shrinks the sampled records, the perturbation budget and the dataset
sizes while keeping every qualitative shape of the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

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
    #: Prediction-engine knobs (see :mod:`repro.core.engine`).  The engine
    #: never changes results — only how many matcher calls are spent.
    engine_dedup: bool = True
    engine_cache: bool = True
    engine_batch_size: int = 512
    engine_n_jobs: int = 1
    #: Matcher-guard knobs (see :mod:`repro.core.guard`).  With the
    #: defaults the guard is a pass-through; retries/timeouts never change
    #: successful results, only whether transient faults kill the run.
    guard_max_retries: int = 0
    guard_call_timeout: float | None = None
    guard_trip_after: int = 5
    guard_cooldown: int = 8
    guard_backoff: float = 0.05

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
        if self.engine_batch_size < 1:
            raise ConfigurationError(
                f"engine_batch_size must be >= 1, got {self.engine_batch_size}"
            )
        if self.engine_n_jobs < 1:
            raise ConfigurationError(
                f"engine_n_jobs must be >= 1, got {self.engine_n_jobs}"
            )
        if self.guard_max_retries < 0:
            raise ConfigurationError(
                f"guard_max_retries must be >= 0, got {self.guard_max_retries}"
            )
        if self.guard_call_timeout is not None and self.guard_call_timeout <= 0:
            raise ConfigurationError(
                f"guard_call_timeout must be > 0, got {self.guard_call_timeout}"
            )
        if self.guard_trip_after < 1:
            raise ConfigurationError(
                f"guard_trip_after must be >= 1, got {self.guard_trip_after}"
            )
        if self.guard_cooldown < 0 or self.guard_backoff < 0:
            raise ConfigurationError(
                "guard_cooldown and guard_backoff must be >= 0"
            )

    def engine_config(self):
        """The :class:`repro.core.engine.EngineConfig` this run asks for."""
        from repro.core.engine import EngineConfig

        return EngineConfig(
            dedup=self.engine_dedup,
            cache=self.engine_cache,
            batch_size=self.engine_batch_size,
            n_jobs=self.engine_n_jobs,
            max_retries=self.guard_max_retries,
            call_timeout=self.guard_call_timeout,
            trip_after=self.guard_trip_after,
            cooldown=self.guard_cooldown,
            backoff=self.guard_backoff,
            guard_seed=self.seed,
        )


@dataclass(frozen=True)
class StoreConfig:
    """Knobs of the persistent explanation store (:mod:`repro.service`).

    ``max_entries`` bounds the store; overflow evicts the least recently
    *accessed* explanations.  ``ttl_seconds`` expires entries by age at
    read time (``None`` = never).
    """

    max_entries: int = 10_000
    ttl_seconds: float | None = None
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

    The lifecycle knobs bound tail latency under overload:
    ``shed_threshold`` / ``max_queue_wait`` are the admission-control
    limits (queue depth, estimated queue wait in seconds) above which
    ``submit`` rejects with
    :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429);
    ``default_deadline`` applies to requests that carry none;
    ``drain_timeout`` is the budget of a graceful ``close(drain=True)``
    before still-queued work is cancelled instead of computed.
    """

    n_workers: int = 2
    queue_size: int = 256
    shed_threshold: int | None = None
    max_queue_wait: float | None = None
    default_deadline: float | None = None
    drain_timeout: float = 30.0

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

    ``ready_timeout`` bounds how long a spawned shard may take to
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

    n_shards: int = 1
    virtual_nodes: int = 64
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 5.0
    check_interval: float = 0.25
    ready_timeout: float = 120.0
    restart_backoff_base: float = 0.5
    restart_backoff_max: float = 30.0
    backoff_reset_after: float = 60.0
    max_failovers: int = 1
    connect_timeout: float = 5.0
    connect_budget: float = 30.0
    host_loss_after: int = 3

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
