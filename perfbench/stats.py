"""Order statistics for the benchmark's wall-time samples."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-quantile of *samples* and the sample count.

    Refused (:class:`TooFewSamples`) when fewer than ``MIN_BEYOND``
    samples lie above the rank, because the tail then rests on a
    handful of readings.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {max(0, n - rank)} beyond "
            f"it; need {MIN_BEYOND}")
    return sorted(samples)[rank - 1], n


def blocks(n: int, count: int) -> List[Tuple[int, int]]:
    """*count* consecutive ``(lo, hi)`` index ranges splitting ``range(n)``
    into near-equal parts."""
    if n < count:
        raise TooFewSamples(f"{n} samples cannot fill {count} blocks")
    return [(n * b // count, n * (b + 1) // count) for b in range(count)]


def block_stats(wall_ns: Sequence[int], done_at_ns: Sequence[int],
                start_ns: int, count: int) -> List[Tuple[float, float, float]]:
    """``(rate, p50, p90)`` of each of *count* consecutive blocks of RPCs.

    *wall_ns* are per-RPC times and *done_at_ns* the matching
    completion clocks, in completion order and in ns (normalized or
    wall); the first block began at *start_ns*.  The median over blocks
    keeps a burst of host noise in a few blocks from moving the run's
    figure.
    """
    out = []
    begin_ns = start_ns
    for lo, hi in blocks(len(wall_ns), count):
        end_ns = done_at_ns[hi - 1]
        block = wall_ns[lo:hi]
        out.append(((hi - lo) * 1e9 / (end_ns - begin_ns),
                    percentile(block, 0.50)[0], percentile(block, 0.90)[0]))
        begin_ns = end_ns
    return out
