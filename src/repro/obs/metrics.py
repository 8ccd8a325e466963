"""The metrics registry: thread-safe counters, gauges and histograms.

Every layer of the serving stack — prediction engine, matcher guard,
explanation service and store, shard router, remote backend client,
bulk job and evaluation runner — records its counters as
**instruments** owned by one :class:`MetricsRegistry`.  Instruments
are identified by a Prometheus-style name plus a label set
(``component``, ``instance`` and, for duration histograms, ``stage``),
so one scrape of the registry answers *where time and matcher calls go
per stage* across the whole process.

Design constraints, in order:

1. **Correctness under threads.**  All instruments of a registry share
   one lock; increments and observations are exact under any
   interleaving (enforced by the hammer tests in
   ``tests/obs/test_metrics.py``), and a snapshot taken through
   :meth:`MetricsRegistry.read` or :meth:`MetricsRegistry.collect` is
   atomic across *all* instruments — concurrent writers can never tear
   a snapshot or mix counter generations.
2. **Cheap.**  An update is one lock acquisition and one float add;
   batched updates (:meth:`MetricsRegistry.bulk`) pay the lock once for
   any number of instruments.  A registry built with ``enabled=False``
   turns every update into a no-op attribute check, which is what the
   ``--no-metrics`` CLI flag uses.
3. **Inert.**  Instruments never feed back into computation: results
   are bit-identical with metrics on, off or absent
   (``benchmarks/bench_obs_overhead.py`` gates both the equivalence and
   the <3% overhead budget).

The registry is picklable (the experiment runner crosses process-pool
boundaries); locks are dropped on serialization and rebuilt on load.

Stats dataclasses declare their instruments
--------------------------------------------
Each component's snapshot dataclass (``EngineStats``, ``GuardStats``,
``ServiceStats``, ``StoreStats``, ``RouterStats``, ``BulkStats``,
``BackendStats``, ``RunnerStats``) is the only declaration of its
counters: every field is made by :func:`stat` (or
:meth:`Metric.field`) and carries the metric name, kind, help string,
histogram buckets and — for a field read from a histogram — the view
(``sum``, ``max`` or ``count``) it reads.  :class:`StatsInstruments`
binds such a class to a registry under the component's labels and
builds snapshots from one atomic read, so adding a counter is one new
field.  It is the only code that creates an instrument (an ``ast`` rule
in ``tests/test_import_boundaries.py`` holds every other module to
that).  A snapshot read through a disabled registry reads 0.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Iterable

from repro.exceptions import ConfigurationError

#: Default duration buckets (seconds) — spans matcher micro-batches
#: (sub-millisecond) through full evaluation cells (minutes).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Row-count buckets, for histograms of batch widths (rows per matcher
#: batch or per wire request).
ROW_BUCKETS = (1.0, 4.0, 16.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0)

#: Instrument kinds (the :class:`MetricsRegistry` factory method names).
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Common behaviour of one (name, labels) time series.

    Instruments are created through a :class:`MetricsRegistry` and share
    its lock; they never take it themselves inside ``_apply`` (the
    registry's bulk path holds it already).
    """

    kind = "abstract"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: dict[str, str]) -> None:
        self._registry = registry
        self.name = name
        self.labels = dict(labels)

    # -- mutation (public entry points take the registry lock) ---------

    def _apply(self, value: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _read(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _reset(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- convenience ----------------------------------------------------

    @property
    def value(self):
        """Current value, read atomically."""
        registry = self._registry
        with registry._lock:
            return self._read()


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = COUNTER

    def __init__(self, registry, name, labels) -> None:
        super().__init__(registry, name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._value += amount

    def _apply(self, value: float) -> None:
        self._value += value

    def _read(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge(Instrument):
    """A value that can go up and down (queue depth, cache size)."""

    kind = GAUGE

    def __init__(self, registry, name, labels) -> None:
        super().__init__(registry, name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if it is higher (high-water marks)."""
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _apply(self, value: float) -> None:
        self._value = float(value)

    def _read(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram(Instrument):
    """Fixed-bucket histogram of observations (durations, sizes).

    Tracks cumulative bucket counts (Prometheus ``le`` semantics), the
    running sum and the observation count; ``max`` is kept as an extra
    convenience for latency reporting.
    """

    kind = HISTOGRAM

    def __init__(self, registry, name, labels,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket bound"
            )
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self._apply(value)

    def _apply(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        if value > self._max:
            self._max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[index] += 1
                break

    def _read(self) -> dict:
        cumulative = []
        running = 0
        for count in self._bucket_counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": list(zip(self.bounds, cumulative)),
            "sum": self._sum,
            "count": self._count,
            "max": self._max,
        }

    def _reset(self) -> None:
        self._bucket_counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    @property
    def sum(self) -> float:
        with self._registry._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._registry._lock:
            return self._count

    @property
    def max(self) -> float:
        with self._registry._lock:
            return self._max


class MetricsRegistry:
    """Owner of a process-local set of instruments.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return the
    instrument for a (name, labels) pair — calling twice with the same
    coordinates yields the same object, so components can re-attach
    after a restart or share series deliberately.  A name is bound to
    one instrument kind and help string on first use; conflicting
    re-registration raises :class:`~repro.exceptions.ConfigurationError`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        #: name -> (kind, help string)
        self._families: dict[str, tuple[str, str]] = {}
        #: (name, label key) -> instrument
        self._instruments: dict[tuple, Instrument] = {}
        self._sequences: dict[str, int] = {}

    # -- registration ---------------------------------------------------

    def _register(self, factory, kind: str, name: str, help: str,
                  labels: dict[str, str]):
        key = (name, _label_key(labels))
        with self._lock:
            family = self._families.get(name)
            if family is not None and family[0] != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {family[0]}, "
                    f"cannot re-register as a {kind}"
                )
            if family is None:
                self._families[name] = (kind, help)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._register(
            lambda: Counter(self, name, labels), COUNTER, name, help, labels
        )

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._register(
            lambda: Gauge(self, name, labels), GAUGE, name, help, labels
        )

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._register(
            lambda: Histogram(self, name, labels, buckets=buckets),
            HISTOGRAM, name, help, labels,
        )

    def next_instance(self, component: str) -> str:
        """A unique per-registry instance id for *component*.

        Components that can exist several times in one process (e.g. a
        prediction engine per dataset) label their instruments with this
        so their series never collide.
        """
        with self._lock:
            index = self._sequences.get(component, 0)
            self._sequences[component] = index + 1
            return str(index)

    # -- atomic multi-instrument operations -----------------------------

    def bulk(self, updates: Iterable[tuple[Instrument, float]]) -> None:
        """Apply many (instrument, value) updates under one lock hold.

        Counters add, gauges set, histograms observe.  This is the hot
        path of the prediction engine: one acquisition per request
        regardless of how many counters move.
        """
        if not self.enabled:
            return
        with self._lock:
            for instrument, value in updates:
                instrument._apply(value)

    def read(self, *instruments: Instrument) -> list:
        """Read several instruments in one atomic snapshot."""
        with self._lock:
            return [instrument._read() for instrument in instruments]

    def drain(self, *instruments: Instrument) -> list:
        """Atomically read *and zero* several instruments.

        Backs ``PredictionEngine.reset_stats``: the returned values and
        the fresh zeros belong to the same generation.
        """
        with self._lock:
            values = [instrument._read() for instrument in instruments]
            for instrument in instruments:
                instrument._reset()
            return values

    def reset(self) -> None:
        """Zero every instrument (tests / long-lived service rollover)."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument._reset()

    # -- export ---------------------------------------------------------

    def collect(self) -> list[dict]:
        """An atomic snapshot of every family, sorted by name.

        Each entry: ``{"name", "kind", "help", "samples": [(labels,
        value-or-histogram-dict), ...]}`` with samples sorted by label
        key.  Both exporters (:mod:`repro.obs.export`) render from this.
        """
        with self._lock:
            families: dict[str, dict] = {}
            for name in sorted(self._families):
                kind, help = self._families[name]
                families[name] = {
                    "name": name, "kind": kind, "help": help, "samples": [],
                }
            for (name, label_key), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0]
            ):
                families[name]["samples"].append(
                    (dict(label_key), instrument._read())
                )
            return list(families.values())

    # -- pickling (runner crosses process pools) ------------------------

    def __getstate__(self) -> dict:
        with self._lock:
            state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


# -- stats dataclasses as instrument declarations -----------------------

#: Field-metadata keys: the :class:`Metric` a field reads and its view.
_METRIC = "metric"
_VIEW = "view"


@dataclasses.dataclass(frozen=True)
class Metric:
    """One instrument a stats dataclass declares.

    *attr* names the bound instrument on a :class:`StatsInstruments`
    (``None``: the field's name); *labels* extend the component's;
    *buckets* are a histogram's bucket bounds.
    """

    name: str
    help: str
    kind: str = COUNTER
    attr: str | None = None
    labels: tuple[tuple[str, str], ...] = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS

    def field(self, view: str | None = None):
        """A stats field read from this instrument — from a histogram
        through *view*: ``"sum"`` or ``"max"`` (floats) or ``"count"``."""
        default = 0.0 if view in ("sum", "max") else 0
        return dataclasses.field(
            default=default, metadata={_METRIC: self, _VIEW: view}
        )


def stat(name: str, help: str, kind: str = COUNTER,
         view: str | None = None, **labels: str):
    """A stats field backed by its own instrument, named after the field."""
    metric = Metric(name, help, kind, labels=tuple(sorted(labels.items())))
    return metric.field(view)


def same_stat(stats_cls: type, name: str):
    """A field declaring the same instrument as ``stats_cls.<name>``."""
    source = stats_cls.__dataclass_fields__[name]
    return dataclasses.field(default=source.default, metadata=source.metadata)


class StatsInstruments:
    """A stats dataclass's declared instruments, bound to one registry.

    Each instrument is a plain attribute (``bound.requested.inc()``) for
    hot paths and :meth:`MetricsRegistry.bulk`.  All carry *component*,
    an ``instance`` (from :meth:`MetricsRegistry.next_instance` unless
    passed) and any further *labels*; binding another class under the
    same labels returns the same instruments.  The class's
    ``registry_only`` :class:`Metric` tuple is exported, not snapshotted.
    """

    def __init__(self, registry: MetricsRegistry, stats_cls: type,
                 component: str, **labels: str) -> None:
        self.registry = registry
        self.stats_cls = stats_cls
        if "instance" not in labels:
            labels["instance"] = registry.next_instance(component)
        self.labels = {"component": component, **labels}
        fields = dataclasses.fields(stats_cls)
        attrs = [f.metadata[_METRIC].attr or f.name for f in fields]
        declared = dict(zip(attrs, (f.metadata[_METRIC] for f in fields)))
        declared.update(
            (m.attr, m) for m in getattr(stats_cls, "registry_only", ())
        )
        for attr, metric in declared.items():
            if hasattr(self, attr):
                raise ConfigurationError(f"instrument name {attr!r} is taken")
            factory = getattr(registry, metric.kind)
            options = (
                {"buckets": metric.buckets} if metric.kind == HISTOGRAM else {}
            )
            setattr(self, attr, factory(
                metric.name, metric.help, **options, **self.labels,
                **dict(metric.labels),
            ))
        unique = list(dict.fromkeys(attrs))
        self._read = [getattr(self, attr) for attr in unique]
        self._slots = [
            (f.name, unique.index(attr), f.metadata[_VIEW], type(f.default))
            for f, attr in zip(fields, attrs)
        ]

    def instruments(self) -> list:
        """The instruments backing a snapshot, in :meth:`build` order."""
        return list(self._read)

    def build(self, values: list):
        """A snapshot from one atomic read of :meth:`instruments`."""
        return self.stats_cls(**{
            name: cast(values[i] if view is None else values[i][view])
            for name, i, view, cast in self._slots
        })

    def snapshot(self):
        """A snapshot read atomically from the registry."""
        return self.build(self.registry.read(*self._read))

    def drain(self):
        """Atomic snapshot-and-zero of the snapshot's instruments."""
        return self.build(self.registry.drain(*self._read))
