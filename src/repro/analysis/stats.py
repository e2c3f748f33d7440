"""Statistics helpers used by the experiment harness.

Only plain-Python statistics are needed: the geometric mean for
Table IV, box-plot summaries for the search-time figure and sorted relative
energies ("S-curves") for Fig. 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Returns ``nan`` for an empty input (no successfully scheduled tests in a
    bucket) so that report code can render a dash instead of crashing.

    Examples
    --------
    >>> round(geometric_mean([1.0, 4.0]), 3)
    2.0
    """
    values = [float(v) for v in values]
    if not values:
        return float("nan")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def s_curve(values: Iterable[float]) -> list[float]:
    """Values sorted ascending — the S-curve representation of Fig. 3."""
    return sorted(float(v) for v in values)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return float("nan")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    weight = position - lower
    low, high = sorted_values[lower], sorted_values[upper]
    if weight == 0.0 or low == high:
        # Short-circuit keeps the result exact (and monotone) even for
        # values whose scaled sum underflows, e.g. denormal floats where
        # ``x * 0.5 + x * 0.5`` rounds to 0 < x.
        return low
    return low + (high - low) * weight


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary plus mean, as plotted in Fig. 4.

    Attributes
    ----------
    minimum, q1, median, q3, maximum:
        Five-number summary of the sample.
    mean:
        Arithmetic mean.
    count:
        Sample size.
    """

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "BoxplotStats":
        """Compute the summary of a sample set (must be non-empty)."""
        data = sorted(float(s) for s in samples)
        if not data:
            raise ValueError("boxplot statistics require at least one sample")
        return cls(
            minimum=data[0],
            q1=percentile(data, 0.25),
            median=percentile(data, 0.50),
            q3=percentile(data, 0.75),
            maximum=data[-1],
            mean=sum(data) / len(data),
            count=len(data),
        )
