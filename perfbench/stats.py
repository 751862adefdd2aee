"""Latency summaries: median and the tail percentile with ten samples beyond it."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int] | None:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the sample at nearest rank
    ``n - beyond`` (1-based) of the ``n`` sorted samples, and that rank as a
    percentile. With fewer than ``beyond + 1`` samples no such percentile
    exists and the result is None."""
    n = len(values)
    if n < beyond + 1:
        return None
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n, n

