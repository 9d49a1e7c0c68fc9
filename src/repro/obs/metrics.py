"""Thread-safe metrics registry: labeled counters, gauges and histograms.

Every node-like component (manager, benefactor, client) owns one
:class:`MetricsRegistry` stamped with a ``component`` and ``node_id``; the
pool layers aggregate per-node snapshots with :func:`merge_snapshots`.

Design constraints, in order:

* **Cheap hot path.**  Recording is a dict lookup done once (callers hold on
  to the child series object, or a :class:`LabelChildren` of them) plus a
  short critical section guarded by a per-series lock; a registry lookup of
  an existing family takes no lock.  When the global observability switch
  is off, recording is a single attribute read and an early return.
* **One instrument per measurement.**  A latency watched both over the
  node's lifetime and over the last minute is one
  ``histogram(..., window=True)``: its ``observe`` updates the lifetime
  buckets and the series' trailing window (:mod:`repro.obs.windows`) under
  one lock, and :meth:`MetricsRegistry.snapshot` exports the two views as
  two families, ``name`` and ``name + "_window"``.
* **Exact under concurrency.**  Python's ``+=`` on an attribute is a
  read-modify-write across bytecodes, so every mutation takes the series
  lock; N threads x M increments sum to exactly N*M (covered by tests).  A
  histogram series is read under one acquisition of that lock, so a
  snapshot's ``count`` always equals its ``+Inf`` bucket.
* **No dependencies.**  Snapshots are plain dicts; the Prometheus text
  exposition lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import runtime
from repro.obs.windows import (
    DEFAULT_WINDOW_SECONDS,
    TimeRing,
    merge_window_states,
    summarize_window,
)

#: Default latency buckets (seconds): micro-benchmark-friendly at the low
#: end, wide enough for multi-second snapshot/recovery work at the top.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class CounterSeries:
    """A single labeled counter series (monotonically non-decreasing)."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: Mapping[str, str]):
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not runtime.ENABLED:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeSeries:
    """A single labeled gauge series (free to go up and down)."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: Mapping[str, str]):
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not runtime.ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not runtime.ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramSeries:
    """A single labeled histogram series with cumulative-style buckets.

    A series of a windowed family also owns a :class:`TimeRing` of its
    recent observations, which ``observe`` feeds under the same lock.
    """

    __slots__ = ("labels", "buckets", "_lock", "_counts", "_sum", "_count",
                 "_ring")

    def __init__(self, labels: Mapping[str, str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 ring: Optional[TimeRing] = None):
        self.labels = dict(labels)
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # final slot: +Inf
        self._sum = 0.0
        self._count = 0
        self._ring = ring

    def observe(self, value: float) -> None:
        if not runtime.ENABLED:
            return
        index = bisect.bisect_left(self.buckets, value)
        ring = self._ring
        tick = ring.tick() if ring is not None else 0
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if ring is not None:
                ring.add(tick, index, value)

    def time(self):
        """Context manager recording the elapsed wall time of the block."""
        return _Timer(self) if runtime.ENABLED else _UNTIMED

    def read(self) -> Tuple[int, float, Dict[str, int], Optional[Dict[str, object]]]:
        """Count, sum, cumulative buckets and window state, in one locked read.

        Buckets are keyed by upper bound (Prometheus ``le``); the window
        state is None for a series without a window.
        """
        ring = self._ring
        tick = ring.tick() if ring is not None else 0
        with self._lock:
            count, total, counts = self._count, self._sum, list(self._counts)
            window = ring.state(tick) if ring is not None else None
        buckets: Dict[str, int] = {}
        running = 0
        for bound, slot in zip(self.buckets, counts):
            running += slot
            buckets[_format_bound(bound)] = running
        buckets["+Inf"] = running + counts[-1]
        return count, total, buckets, window

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative bucket counts keyed by upper bound (Prometheus ``le``)."""
        return self.read()[2]


class _Timer:
    """The scope of :meth:`HistogramSeries.time`."""

    __slots__ = ("_series", "_started")

    def __init__(self, series: HistogramSeries) -> None:
        self._series = series
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *_exc) -> bool:
        self._series.observe(time.perf_counter() - self._started)
        return False


#: What :meth:`HistogramSeries.time` returns while observability is off.
_UNTIMED = nullcontext()


def _format_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    text = repr(bound)
    return text


class _MetricFamily:
    """Common get-or-create machinery shared by the three metric kinds."""

    kind = "untyped"
    _series_cls: type = CounterSeries

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}
        self._default = None if self.labelnames else self._make_series({})
        if self._default is not None:
            self._series[()] = self._default

    def _make_series(self, labels: Mapping[str, str]):
        return self._series_cls(labels)

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._make_series(
                    {name: str(labelvalues[name]) for name in self.labelnames}
                )
                self._series[key] = series
        return series

    def series(self) -> List:
        with self._lock:
            return list(self._series.values())

    # Unlabeled convenience: a family declared without labelnames behaves
    # like its single series, so `registry.counter("x").inc()` just works.
    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} is labeled; use .labels(...) first"
            )
        return self._default


class LabelChildren(dict):
    """The series of a one-label family by label value, each resolved once.

    Paths that pick a series per call (per benefactor, per standby) read it
    here with one dict lookup instead of ``family.labels(...)``'s label
    checks and family lock.  A value seen for the first time is resolved
    through the family, so snapshots show exactly what they did.
    """

    __slots__ = ("_family", "_label")

    def __init__(self, family, label: str) -> None:
        super().__init__()
        self._family = family
        self._label = label

    def __missing__(self, value: str):
        series = self[value] = self._family.labels(**{self._label: value})
        return series


class _FunctionSeries:
    """A series whose value is read from its owner at snapshot time."""

    __slots__ = ("labels", "_read")

    def __init__(self, read: Callable[[], float]) -> None:
        self.labels: Dict[str, str] = {}
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())


class Counter(_MetricFamily):
    kind = "counter"
    _series_cls = CounterSeries

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set_function(self, read: Callable[[], float]) -> None:
        """Export ``read()`` as this unlabeled counter's value from now on.

        For a count its component keeps anyway, because something other
        than telemetry needs it: the registry reads it when snapshotted
        instead of being told of every increment, and the global switch,
        which stops telemetry, does not stop the count.
        """
        self._require_default()
        with self._lock:
            self._default = self._series[()] = _FunctionSeries(read)

    @property
    def value(self) -> float:
        return self._require_default().value


class Gauge(_MetricFamily):
    kind = "gauge"
    _series_cls = GaugeSeries

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Histogram(_MetricFamily):
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 now: Optional[Callable[[], float]] = None):
        self.buckets = tuple(sorted(buckets))
        #: The clock of a windowed family's rings; None without a window.
        self._now = now
        super().__init__(name, help, labelnames)

    @property
    def windowed(self) -> bool:
        return self._now is not None

    def _make_series(self, labels: Mapping[str, str]):
        ring = (TimeRing(self._now, len(self.buckets) + 1)
                if self._now is not None else None)
        return HistogramSeries(labels, self.buckets, ring)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def time(self):
        return self._require_default().time()

    @property
    def count(self) -> int:
        return self._require_default().count

    @property
    def sum(self) -> float:
        return self._require_default().sum


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports this module transitively.
    try:
        from repro import __version__
    except ImportError:  # pragma: no cover - partial-init edge
        return "unknown"
    return __version__


class MetricsRegistry:
    """A per-node family registry stamped with component/node identity.

    ``clock`` (any object with a ``now() -> float`` method, e.g.
    :class:`repro.util.clock.Clock`) drives the windowed series and the
    ``process_uptime_seconds`` gauge; the default is the process monotonic
    clock.  Every registry also carries a ``stdchk_build_info`` info-style
    metric stamped with the package version, so any scrape identifies the
    code it is looking at.
    """

    def __init__(self, component: str = "", node_id: str = "",
                 clock=None):
        self.component = component
        self.node_id = node_id
        self._now: Callable[[], float] = (
            clock.now if clock is not None else time.monotonic
        )
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}
        self._started = self._now()
        self._uptime = self.gauge(
            "process_uptime_seconds",
            "Seconds since this node's registry was created.",
        )
        build = self.gauge(
            "stdchk_build_info",
            "Constant 1; the version label identifies the running build.",
            labelnames=("version",),
        ).labels(version=_package_version())
        # Identity must survive the global kill switch (a scrape of a
        # disabled node should still say what build it is), so set the
        # series directly instead of through the gated setter.
        with build._lock:
            build._value = 1.0

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs):
        # Families are only ever added, never replaced or removed, so a hit
        # needs no lock: components resolve their instruments per session
        # or per reader, and this is that lookup.
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = cls(name, help, labelnames, **kwargs)
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        if tuple(labelnames) != family.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  window: bool = False) -> Histogram:
        """A histogram family; with ``window=True`` each series also keeps
        its trailing window on this registry's clock, exported as the
        ``name + "_window"`` family."""
        family = self._get_or_create(Histogram, name, help, labelnames,
                                     buckets=buckets,
                                     now=self._now if window else None)
        if family.windowed != window:
            raise ValueError(
                f"metric {name!r} already registered with "
                f"window={family.windowed}"
            )
        return family

    def window_summary(self, name: str) -> Optional[Dict[str, float]]:
        """The family-wide live-window summary of one windowed histogram."""
        family = self._families.get(name)
        if not isinstance(family, Histogram) or not family.windowed:
            return None
        merged = merge_window_states(
            [series.read()[3] for series in family.series()],
            len(family.buckets) + 1,
        )
        return summarize_window(merged, family.buckets)

    def families(self) -> List[_MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> dict:
        """A point-in-time JSON-friendly dump of every series.

        Each histogram series is read once, under its lock; a windowed
        family exports that one read as two families, ``name``
        (``histogram``) and ``name + "_window"`` (``window``).
        """
        self._uptime.set(self._now() - self._started)
        metrics: Dict[str, dict] = {}
        for family in self.families():
            entries = []
            recent = []
            for series in family.series():
                labels = dict(series.labels)
                if isinstance(series, HistogramSeries):
                    count, total, buckets, window = series.read()
                    entries.append({"labels": labels, "count": count,
                                    "sum": total, "buckets": buckets})
                    if window is not None:
                        recent.append({"labels": dict(labels),
                                       **summarize_window(window, series.buckets)})
                else:
                    entries.append({"labels": labels, "value": series.value})
            metrics[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": entries,
            }
            if isinstance(family, Histogram) and family.windowed:
                metrics[family.name + "_window"] = {
                    "type": "window",
                    "help": f"{family.help} Trailing "
                            f"{DEFAULT_WINDOW_SECONDS:g} s window.".strip(),
                    "labelnames": list(family.labelnames),
                    "series": recent,
                }
        return {
            "component": self.component,
            "node_id": self.node_id,
            "metrics": metrics,
        }


def merge_snapshots(snapshots: Sequence[Optional[dict]]) -> dict:
    """Aggregate per-node snapshots into one cluster-wide snapshot.

    Series are summed by (metric name, label set).  The node a series came
    from (its snapshot's ``component``/``node_id``) is *not* kept as a
    label: aggregation is intentionally lossy so the output reads like one
    logical exporter.  Gauges sum as well, which is the useful semantics for
    the gauges we export (outstanding requests, failed-set sizes, routed
    replica load).
    """
    merged: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, family in snap.get("metrics", {}).items():
            target = merged.setdefault(name, {
                "type": family["type"],
                "help": family.get("help", ""),
                "labelnames": list(family.get("labelnames", [])),
                "series": {},
            })
            for entry in family.get("series", []):
                key = tuple(sorted(entry.get("labels", {}).items()))
                slot = target["series"].get(key)
                if family["type"] == "window":
                    # Counts/rates sum; quantiles and maxima take the worst
                    # node (a cluster's recent p99 is at least its slowest
                    # member's — conservative, and honest about lossiness).
                    if slot is None:
                        slot = {"labels": dict(entry.get("labels", {}))}
                        target["series"][key] = slot
                    for stat in ("count", "sum", "rate"):
                        slot[stat] = slot.get(stat, 0.0) + entry.get(stat, 0.0)
                    for stat in ("p50", "p90", "p99", "max"):
                        slot[stat] = max(slot.get(stat, 0.0),
                                         entry.get(stat, 0.0))
                    slot["mean"] = (slot["sum"] / slot["count"]
                                    if slot["count"] else 0.0)
                    slot["window_seconds"] = entry.get("window_seconds", 0.0)
                elif family["type"] == "histogram":
                    if slot is None:
                        slot = {
                            "labels": dict(entry.get("labels", {})),
                            "count": 0,
                            "sum": 0.0,
                            "buckets": {},
                        }
                        target["series"][key] = slot
                    slot["count"] += entry.get("count", 0)
                    slot["sum"] += entry.get("sum", 0.0)
                    for bound, count in entry.get("buckets", {}).items():
                        slot["buckets"][bound] = (
                            slot["buckets"].get(bound, 0) + count
                        )
                else:
                    if slot is None:
                        slot = {
                            "labels": dict(entry.get("labels", {})),
                            "value": 0.0,
                        }
                        target["series"][key] = slot
                    slot["value"] += entry.get("value", 0.0)
    return {
        "component": "aggregate",
        "node_id": "",
        "metrics": {
            name: {
                "type": family["type"],
                "help": family["help"],
                "labelnames": family["labelnames"],
                "series": list(family["series"].values()),
            }
            for name, family in merged.items()
        },
    }
