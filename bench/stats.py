"""Order statistics the benchmark reports: medians, a tail percentile with
its sample count, and the quartile spread used to judge steadiness."""

from __future__ import annotations

import math
import statistics


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile that leaves at least `beyond` of `n` samples
    above it, or None when there are too few samples for any."""
    if n <= beyond:
        return None
    return math.floor(100 * (n - beyond) / n)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def summarize(values) -> dict:
    """Median and tail percentile of a set of timings, with the sample count
    they rest on."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    pct = tail_percentile(len(values))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(values, pct)
    return out


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
