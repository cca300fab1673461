"""Statistical timing-threshold detector.

A run's latency population is summarized by a single cut-off:

    threshold = mean + 3 * (max - min) / n

Blocks strictly above the cut-off are flagged anomalous. The detector sees
only timing, so bit-flip faults (which leave latency untouched) are
invisible to it by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ThresholdModel:
    mean_us: float
    min_us: float
    max_us: float
    n: int
    threshold_us: float


def fit_threshold(times_us: Sequence[float]) -> ThresholdModel:
    """Fit the cut-off from a latency sample.

    The mean is math.fsum of the sample as Python floats over its size,
    which is statistics.fmean's arithmetic: fsum adds exactly, while numpy's
    pairwise summation can move the cut-off's last bit.
    """
    times = np.asarray(times_us, dtype=np.float64).tolist()
    if not times:
        raise ValueError("cannot fit a threshold on an empty sample")
    n = len(times)
    mean = math.fsum(times) / n
    lo = min(times)
    hi = max(times)
    return ThresholdModel(mean, lo, hi, n, mean + 3.0 * (hi - lo) / n)


def classify_threshold(times_us: np.ndarray, model: ThresholdModel) -> np.ndarray:
    """Flag each latency that strictly exceeds the model cut-off."""
    return np.asarray(times_us, dtype=np.float64) > model.threshold_us
