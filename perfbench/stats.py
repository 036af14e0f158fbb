"""Order statistics for benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles considered when reporting a tail, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A reported tail percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    # The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
    # from pushing an exact rank up by one.
    return max(math.ceil(p * n / 100.0 - 1e-9), 1)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES,
                    min_beyond: int = MIN_SAMPLES_BEYOND) -> Optional[float]:
    """The highest candidate percentile with ``min_beyond`` samples beyond it.

    None when even the lowest candidate lacks them (fewer than ~20 samples).
    """
    best = None
    for p in sorted(candidates):
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, relative spread and sample count of ``values``."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "n": len(values),
    }
