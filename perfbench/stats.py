"""Summary statistics for the benchmark's timings.

Percentiles use the nearest-rank rule: the p-th percentile of n samples is
the ceil(p/100 * n)-th smallest.  Under that rule exactly n - ceil(0.9 n)
samples lie beyond the 90th percentile, so a p90 rests on at least ten
samples beyond it exactly when the run holds at least 100 samples.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {pct}")
    ordered = sorted(samples)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def beyond(samples, pct: float) -> int:
    """Number of samples strictly above the nearest-rank percentile."""
    cut = percentile(samples, pct)
    return sum(1 for s in samples if s > cut)


def latency_summary(samples) -> dict:
    """Median and p90 of per-call latencies, with the counts that back them.

    ``p90_supported`` says whether at least MIN_BEYOND samples lie beyond the
    p90; when it is false the p90 is still reported, but it is a near-maximum
    and the record says so.
    """
    n_beyond = beyond(samples, 90)
    return {
        "samples": len(samples),
        "p50": percentile(samples, 50),
        "p90": percentile(samples, 90),
        "beyond_p90": n_beyond,
        "p90_supported": n_beyond >= MIN_BEYOND,
    }
