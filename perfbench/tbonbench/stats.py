"""Small statistics helpers shared by the workloads and the report."""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is set by a handful of outliers.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when the sample is too small.

    The value is the sample of 1-based rank ``ceil(q / 100 * n)`` in sorted
    order.  It is returned only when at least :data:`MIN_BEYOND` samples
    rank above it: p90 needs 100 samples, p99 needs 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`percentile` answers ``q``."""
    n = MIN_BEYOND
    while percentile(range(n), q) is None:
        n += 1
    return n


def chunked_percentile(samples: Sequence[float], q: float, chunk: int) -> float | None:
    """Median over consecutive chunks of ``samples`` of each chunk's ``q``-th percentile.

    Samples are taken in time order, so a chunk covers one stretch of the
    run.  The host slows for stretches of seconds; a percentile of all
    samples moves with the share of the run those stretches cover, while
    the median over stretches does not, as long as fewer than half are
    slowed.  The tail of fewer than ``chunk`` samples joins the last
    chunk.  Returns None unless every chunk answers ``q``.
    """
    n_chunks = len(samples) // chunk
    if n_chunks == 0:
        return None
    bounds = [i * chunk for i in range(n_chunks)] + [len(samples)]
    values = [percentile(samples[a:b], q) for a, b in zip(bounds, bounds[1:])]
    if any(v is None for v in values):
        return None
    return statistics.median(values)




def host_ref_loop_ms(iterations: int = 1_000_000, repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed pure-Python loop, in ms.

    The loop touches no part of the program; a change in it between two
    sets of runs is host drift, not a program change.  It is recorded,
    never used to normalize other metrics.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    if acc != (iterations // 8) * 28 + sum(range(iterations % 8)):
        raise RuntimeError("host reference loop miscounted")
    return best * 1000.0
