"""Order statistics shared by the harness and ``compare`` (no ``repro`` import)."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]
