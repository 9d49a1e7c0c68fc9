"""The recent-window half of a windowed histogram: quantiles and rates.

The cumulative series in :mod:`repro.obs.metrics` answer "how did this node
behave since it started"; an operator watching a live pool needs "how is it
behaving *now*".  ``registry.histogram(name, ..., window=True)`` gives each
series a :class:`TimeRing` as well: a ring of fixed-duration time buckets
over the owning registry's clock — each bucket holds a count, a sum, a max
and value-bucket counts — so :func:`summarize_window` reports the
p50/p90/p99, rate and mean of the trailing window only.  The ring has no
lock of its own: the series updates it inside the same ``observe`` (one
``bisect``, one lock) that updates its lifetime buckets, and reads it under
that same lock when snapshotted, so both views always count the same
observations.  Old buckets are recycled lazily on write (no background
thread) and expired buckets are excluded on read, so the window costs
O(buckets) memory.

Snapshots export the window as a second family, ``name + "_window"``, of
the ``"window"`` type; the Prometheus exporter renders it as ``summary``
samples (``name_window{quantile="0.99"}``, ``name_window_sum``,
``name_window_count``), which is exactly the exposition semantics of a
sliding-window summary.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

#: Trailing window and ring resolution of every windowed series.
DEFAULT_WINDOW_SECONDS = 60.0
DEFAULT_WINDOW_BUCKETS = 12
_BUCKET_SECONDS = DEFAULT_WINDOW_SECONDS / DEFAULT_WINDOW_BUCKETS

#: Quantiles reported by every windowed summary.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class _TimeBucket:
    """One fixed-duration slice of the ring (mutated only under the lock)."""

    __slots__ = ("index", "count", "sum", "max", "counts")

    def __init__(self, value_buckets: int) -> None:
        self.index = -1
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.counts = [0] * value_buckets

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        for position in range(len(self.counts)):
            self.counts[position] = 0


class TimeRing:
    """The trailing-window state of one series, guarded by its owner's lock.

    :meth:`tick` reads the clock (call it outside the lock); :meth:`add` and
    :meth:`state` must run under the owning series' lock.
    """

    __slots__ = ("_now", "_ring")

    def __init__(self, now: Callable[[], float], value_buckets: int) -> None:
        self._now = now
        self._ring = [_TimeBucket(value_buckets)
                      for _ in range(DEFAULT_WINDOW_BUCKETS)]

    def tick(self) -> int:
        """The index of the time bucket the clock is in now."""
        return int(self._now() / _BUCKET_SECONDS)

    def add(self, tick: int, position: int, value: float) -> None:
        """Count ``value`` (in value bucket ``position``) at time ``tick``."""
        bucket = self._ring[tick % DEFAULT_WINDOW_BUCKETS]
        if bucket.index != tick:
            bucket.reset(tick)
        bucket.count += 1
        bucket.sum += value
        if value > bucket.max:
            bucket.max = value
        bucket.counts[position] += 1

    def state(self, tick: int) -> Dict[str, object]:
        """Merged (count, sum, max, value-bucket counts) of the live window."""
        oldest = tick - DEFAULT_WINDOW_BUCKETS + 1
        count = 0
        total = 0.0
        peak = 0.0
        counts = [0] * len(self._ring[0].counts)
        for bucket in self._ring:
            if not (oldest <= bucket.index <= tick) or not bucket.count:
                continue
            count += bucket.count
            total += bucket.sum
            if bucket.max > peak:
                peak = bucket.max
            for position, slot in enumerate(bucket.counts):
                counts[position] += slot
        return {"count": count, "sum": total, "max": peak, "counts": counts}


def summarize_window(state: Mapping[str, object],
                     bounds: Sequence[float]) -> Dict[str, float]:
    """Turn one merged window state into the exported summary dict."""
    count = int(state["count"])
    total = float(state["sum"])
    peak = float(state["max"])
    counts: Sequence[int] = state["counts"]  # type: ignore[assignment]
    out: Dict[str, float] = {
        "count": float(count),
        "sum": total,
        "max": peak,
        "rate": count / DEFAULT_WINDOW_SECONDS,
        "mean": (total / count) if count else 0.0,
        "window_seconds": DEFAULT_WINDOW_SECONDS,
    }
    for quantile in SUMMARY_QUANTILES:
        out[f"p{int(quantile * 100)}"] = _quantile(counts, bounds, count,
                                                   quantile, peak)
    return out


def _quantile(counts: Sequence[int], bounds: Sequence[float], count: int,
              quantile: float, peak: float) -> float:
    """Prometheus-style bucket-bound quantile estimate over the window.

    Returns the upper bound of the value bucket holding the q-th observation;
    observations beyond the largest bound report the observed window max
    (tighter than +Inf and still conservative).
    """
    if count <= 0:
        return 0.0
    target = quantile * count
    running = 0
    for position, slot in enumerate(counts):
        running += slot
        if running >= target:
            if position < len(bounds):
                return float(bounds[position])
            break
    return peak


def merge_window_states(states: Sequence[Mapping[str, object]],
                        value_buckets: int) -> Dict[str, object]:
    """Combine several series' window states into one (same bounds)."""
    count = 0
    total = 0.0
    peak = 0.0
    counts = [0] * value_buckets
    for state in states:
        count += int(state["count"])
        total += float(state["sum"])
        peak = max(peak, float(state["max"]))
        for position, slot in enumerate(state["counts"]):  # type: ignore[arg-type]
            counts[position] += slot
    return {"count": count, "sum": total, "max": peak, "counts": counts}
