"""Scalar reference for the anomaly schedule, kept independent of the library.

This is the block-by-block loop that assign_anomalies replaced with one
draw of 3n doubles: one Generator call per decision, from the run's
schedule stream (spawn key 1 of the run seed). It returns each block's
(kind, delay_us) in block order.
"""

from typing import List, Optional, Tuple

import numpy as np

_STREAM_SCHEDULE = 1


def schedule(n: int, inject_pct: float, seed: int, delay_min_us: float,
             delay_max_us: float) -> List[Tuple[str, Optional[float]]]:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM_SCHEDULE,)))
    p = inject_pct / 100.0
    tags = []
    for _ in range(n):
        if rng.random() < p:
            if rng.random() < 0.5:
                tags.append(("delay", float(rng.uniform(delay_min_us, delay_max_us))))
            else:
                tags.append(("fault", None))
        else:
            tags.append(("none", None))
    return tags
