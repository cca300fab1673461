"""Plaintext workload generation and anomaly injection.

A run is a fixed-size batch of 16-byte blocks. Each block may carry one
anomaly tag: a timing delay (extra latency before encryption) or a bit-flip
fault (first plaintext byte XORed with 0xFF just before encryption). All
randomness is drawn from numpy generators derived from the run seed, so a
(seed, n_blocks, inject_pct) triple fully determines the workload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

BLOCK_SIZE = 16
FAULT_MASK = 0xFF

# printable ASCII range used by the structured input distribution
ASCII_LOW = 0x20
ASCII_HIGH = 0x7E

DEFAULT_DELAY_MIN_US = 5_000.0
DEFAULT_DELAY_MAX_US = 20_000.0
# one hour: far beyond any useful injected delay, and well inside what
# time.sleep accepts in real mode
MAX_DELAY_US = 3_600_000_000.0
# far beyond the cores of one host; a process pool starts all its workers at once
MAX_WORKERS = 64

# spawn_key streams: block bytes, anomaly schedule, simulated timing jitter
_STREAM_BLOCKS = 0
_STREAM_SCHEDULE = 1
_STREAM_TIMING = 2


def _rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Derive an independent generator for one stream of a run."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, *key)))


class InputDistribution(enum.Enum):
    UNIFORM = "uniform"
    ASCII = "ascii"


class Mode(enum.Enum):
    REAL = "real"
    SIMULATED = "simulated"


class AnomalyKind(enum.Enum):
    NONE = "none"
    DELAY = "delay"
    FAULT = "fault"


@dataclass(frozen=True)
class AnomalyTag:
    """Anomaly assigned to one block; delay_us is set only for DELAY tags."""

    kind: AnomalyKind = AnomalyKind.NONE
    delay_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is AnomalyKind.DELAY:
            if self.delay_us is None or self.delay_us <= 0:
                raise ValueError("delay tag requires a positive delay_us")
        elif self.delay_us is not None:
            raise ValueError(f"{self.kind.value} tag must not carry delay_us")

    @property
    def is_anomaly(self) -> bool:
        return self.kind is not AnomalyKind.NONE


@dataclass(frozen=True)
class PlainBlock:
    index: int
    data: bytes
    tag: AnomalyTag

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"block index must be non-negative, got {self.index}")
        if len(self.data) != BLOCK_SIZE:
            raise ValueError(f"block {self.index} has {len(self.data)} bytes, expected {BLOCK_SIZE}")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a pipeline run except the key."""

    n_blocks: int = 1024
    inject_pct: float = 20.0
    workers: int = 1
    seed: int = 1
    mode: Mode = Mode.REAL
    delay_min_us: float = DEFAULT_DELAY_MIN_US
    delay_max_us: float = DEFAULT_DELAY_MAX_US
    input_dist: InputDistribution = InputDistribution.ASCII
    work_amplification: int = 1
    # simulated-mode timing model: time_us = base + U(0, jitter) + delay
    base_time_us: float = 100.0
    jitter_us: float = 10.0

    def validate(self) -> None:
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")
        if not 0.0 <= self.inject_pct <= 100.0:
            raise ValueError("inject_pct must be within [0, 100]")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")
        if not 0 < self.delay_min_us <= self.delay_max_us <= MAX_DELAY_US:
            raise ValueError(f"delay range must satisfy 0 < min <= max <= {MAX_DELAY_US:g}")
        if self.work_amplification < 1:
            raise ValueError("work_amplification must be at least 1")
        if self.base_time_us < 0 or self.jitter_us < 0:
            raise ValueError("simulated timing parameters must be non-negative")


def generate_blocks(n: int, dist: InputDistribution, seed: int) -> List[PlainBlock]:
    """Produce n untagged blocks with indices 0..n-1."""
    if n < 1:
        raise ValueError("cannot generate an empty workload")
    rng = _rng(seed, _STREAM_BLOCKS)
    if dist is InputDistribution.UNIFORM:
        raw = rng.integers(0, 256, size=(n, BLOCK_SIZE), dtype=np.uint8)
    elif dist is InputDistribution.ASCII:
        raw = rng.integers(ASCII_LOW, ASCII_HIGH + 1, size=(n, BLOCK_SIZE), dtype=np.uint8)
    else:
        raise ValueError(f"unknown input distribution: {dist!r}")
    none_tag = AnomalyTag()
    return [PlainBlock(i, raw[i].tobytes(), none_tag) for i in range(n)]


def assign_anomalies(
    blocks: Sequence[PlainBlock],
    inject_pct: float,
    seed: int,
    delay_min_us: float = DEFAULT_DELAY_MIN_US,
    delay_max_us: float = DEFAULT_DELAY_MAX_US,
) -> List[PlainBlock]:
    """Tag each block independently: anomalous with probability inject_pct/100.

    An anomalous block is a delay or a fault with equal probability. Delay
    magnitudes are uniform in [delay_min_us, delay_max_us]. Draws happen in
    block-index order from a dedicated stream, so the schedule is a pure
    function of (seed, inject_pct, delay range).
    """
    if not 0.0 <= inject_pct <= 100.0:
        raise ValueError("inject_pct must be within [0, 100]")
    if delay_min_us <= 0 or delay_max_us < delay_min_us:
        raise ValueError("delay range must satisfy 0 < min <= max")
    # one double per random() or uniform() call of the block-by-block schedule,
    # drawn at once; a delay is lo + (hi - lo) * u, as Generator.uniform computes it
    u = _rng(seed, _STREAM_SCHEDULE).random(3 * len(blocks)).tolist()
    p = inject_pct / 100.0
    span = delay_max_us - delay_min_us
    none_tag, fault_tag = AnomalyTag(), AnomalyTag(AnomalyKind.FAULT)
    tagged: List[PlainBlock] = []
    k = 0
    for block in blocks:
        if u[k] >= p:
            tag, k = none_tag, k + 1
        elif u[k + 1] >= 0.5:
            tag, k = fault_tag, k + 2
        else:
            tag, k = AnomalyTag(AnomalyKind.DELAY, delay_min_us + span * u[k + 2]), k + 3
        tagged.append(PlainBlock(block.index, block.data, tag))
    return tagged


def apply_fault(block: PlainBlock) -> PlainBlock:
    """Flip every bit of the first plaintext byte; other blocks pass through."""
    if block.tag.kind is not AnomalyKind.FAULT:
        return block
    data = bytes([block.data[0] ^ FAULT_MASK]) + block.data[1:]
    return replace(block, data=data)

