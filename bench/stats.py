"""Order statistics for the benchmark: percentiles, quartiles, spread.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it (choosing-metrics, section 1): a p99
over 300 samples rests on three values and repeats badly, so it is not
reported as one.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles a report may name, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def supported_tail(n_samples: int) -> float | None:
    """Highest tail percentile with at least ten samples beyond it."""
    best = None
    for pct in TAIL_PERCENTILES:
        if round(n_samples * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND:
            best = pct
    return best


def tail_percentile(values, wanted: float) -> tuple[float, float]:
    """``(pct, value)``: ``wanted`` if the sample supports it, else the
    highest percentile it does support (the median for tiny samples)."""
    supported = supported_tail(len(values))
    pct = 50.0 if supported is None else min(wanted, supported)
    return pct, percentile(values, pct)


#: A window's samples are cut into at most this many consecutive chunks.
MAX_CHUNKS = 8


def calm(values, better: str = "lower") -> float:
    """The value at the calm quartile of per-chunk (or per-slice) values.

    Interference from the machine — a noisy neighbour, a throttled
    vCPU — only ever adds time, and it comes in bursts of seconds.  The
    quarter of the window it disturbed least is therefore the best
    estimate of what the program itself costs, and it repeats from run
    to run where a mean or a pooled tail percentile does not.  A change
    in the program moves every chunk, so it still shows.  With eight
    chunks this is the second best of them, which one lucky chunk
    cannot set.
    """
    ordered = sorted(values, reverse=(better == "higher"))
    return float(ordered[(len(ordered) - 1) // 4])


def steady_percentile(samples, pct: float) -> float:
    """The calm quartile, over consecutive chunks of ``samples``, of
    each chunk's ``pct``-th percentile.

    ``samples`` are in time order.  Every chunk keeps at least ten
    samples beyond the percentile, so fewer samples mean fewer chunks,
    down to the one pooled percentile.
    """
    beyond = min(pct, 100.0 - pct) / 100.0
    per_chunk = math.ceil(MIN_BEYOND / beyond) if beyond else len(samples)
    chunks = max(1, min(MAX_CHUNKS, len(samples) // per_chunk))
    size = len(samples) / chunks
    return calm(
        percentile(samples[round(index * size):round((index + 1) * size)], pct)
        for index in range(chunks)
    )


def quartile_spread(values) -> dict:
    """Median, quartiles and the interquartile distance as a share of
    the median — the spread the driver holds against a metric's bound."""
    if len(values) < 2:
        only = float(values[0])
        return {"median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}
