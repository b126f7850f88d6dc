"""Percentiles that refuse to report a tail they have not sampled.

A small machine's CPU and disk have slow episodes lasting seconds.  A
percentile pooled over a whole run flips with the share of the run that
fell in one.  So every reported percentile is a median over blocks: the
samples, in the order they were taken, are cut into consecutive blocks
just large enough for the percentile, and the median of the blocks'
percentiles is reported.  A slow episode that covers fewer than half the
blocks leaves it unchanged.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def samples_needed(fraction: float) -> int:
    """The smallest sample count leaving ``MIN_BEYOND`` samples above ``fraction``."""
    count = MIN_BEYOND
    while count - math.ceil(fraction * count) < MIN_BEYOND:
        count += 1
    return count


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1)).

    Raises:
        TooFewSamples: when fewer than ``MIN_BEYOND`` samples lie beyond it.
    """
    count = len(values)
    rank = math.ceil(fraction * count)
    if count - rank < MIN_BEYOND or rank < 1:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples leaves {count - rank} beyond it; "
            f"at least {MIN_BEYOND} are required ({samples_needed(fraction)} samples)"
        )
    return sorted(values)[rank - 1]


def split(values: Sequence, count: int) -> List[Sequence]:
    """``values`` cut into ``count`` consecutive blocks of near-equal size."""
    bounds = [round(index * len(values) / count) for index in range(count + 1)]
    return [values[start:end] for start, end in zip(bounds, bounds[1:])]


def block_percentile(values: Sequence[float], fraction: float) -> float:
    """Median over consecutive blocks of each block's percentile.

    Raises:
        TooFewSamples: when not even one block has enough samples.
    """
    count = len(values) // samples_needed(fraction)
    if not count:
        return percentile(values, fraction)  # raises TooFewSamples
    return statistics.median(percentile(part, fraction) for part in split(values, count))


def summarize(values: Sequence[float], fractions: Sequence[float]) -> Dict[str, float]:
    """``{"p50": ..., "p90": ...}`` for every fraction the samples support."""
    out = {}
    for fraction in fractions:
        try:
            out[f"p{fraction * 100:g}"] = block_percentile(values, fraction)
        except TooFewSamples:
            continue
    return out
