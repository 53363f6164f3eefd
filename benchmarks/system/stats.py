"""Order statistics for benchmark samples.

A tail percentile estimated from a handful of samples beyond it is mostly
noise, so :func:`percentile` refuses any percentile with fewer than
:data:`MIN_BEYOND` samples beyond it: the median needs 20 samples, p90
needs 100.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    beyond = samples_beyond(len(ordered), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond:g} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(samples) -> float:
    """The median of any non-empty sample (no tail requirement).

    For values summarised from a few repeats — a set-up time or a reopen
    measured three times — where no tail is being claimed.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
