"""Plaintext workload generation and anomaly injection.

A run is a fixed-size batch of 16-byte blocks, held as columns (Blocks). Each
block may carry one anomaly: a timing delay (extra latency before encryption)
or a bit-flip fault (first plaintext byte XORed with 0xFF just before
encryption). A block's kind is a KIND_* code and its delay a column of its
own, and a block is anomalous exactly when its kind is not NONE. The
cipher's run carries the kind column on; only its record view, which
perfbench reads, tags each block with one of the three shared TAGS, a tag
that names the kind and nothing else. All randomness is drawn from numpy
generators derived from the run seed. generate_blocks and assign_anomalies
take the run's RunConfig, which checked every field when it was built, so
neither checks a field again, and the config alone determines the run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Tuple

import numpy as np

BLOCK_SIZE = 16
FAULT_MASK = 0xFF

# printable ASCII range used by the structured input distribution
ASCII_LOW = 0x20
ASCII_HIGH = 0x7E

# one hour: far beyond any useful injected delay, and well inside what
# time.sleep accepts in real mode
MAX_DELAY_US = 3_600_000_000.0
# far beyond the cores of one host; a process pool starts all its workers at once
MAX_WORKERS = 64

# spawn_key streams, one id each: block bytes, anomaly schedule and simulated
# timing jitter of a run seed; the train/test split of a run seed; the trees of
# a forest seed (keyed further by the tree index)
_STREAM_BLOCKS = 0
_STREAM_SCHEDULE = 1
_STREAM_TIMING = 2
_STREAM_SPLIT = 3
_STREAM_TREE = 4


def _rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Derive an independent generator for one stream of a seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, *key)))


def _check_integers(config: object, *names: str) -> None:
    """Raise ValueError unless each named field of config holds an int or a numpy
    integer: a bool, a float such as 2.0 and any other type are refused."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _freeze_columns(holder: object, what: str, *columns: Tuple[str, type, Tuple[int, ...]]) -> None:
    """Check that each (name, dtype, shape) column of the frozen dataclass holder
    is a numpy array of that dtype and shape, and put a read-only view of it in
    its place; raise ValueError naming the first column that is not."""
    for name, dtype, shape in columns:
        column = getattr(holder, name)
        if not isinstance(column, np.ndarray) or column.dtype != dtype or column.shape != shape:
            raise ValueError(f"{what} column {name} must be a {np.dtype(dtype)} array of shape {shape}")
        view = column.view()
        view.flags.writeable = False
        object.__setattr__(holder, name, view)


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


class AnomalyTag(NamedTuple):
    """The anomaly kind of one encrypted block, and nothing else. It stays only
    because perfbench reads record.tag.kind from the cipher run's record view;
    a block's delay lives in Blocks.delay_us, and its truth label is derived
    from the kind."""

    kind: AnomalyKind = AnomalyKind.NONE


# codes of the Blocks.kind column, in AnomalyKind order
KIND_NONE, KIND_DELAY, KIND_FAULT = range(len(AnomalyKind))
# the tag of each code, shared by every block of that kind
TAGS = tuple(map(AnomalyTag, AnomalyKind))


@dataclass(frozen=True)
class Blocks:
    """A run of n >= 1 blocks as read-only columns: index int64[n] (block
    numbers, non-negative and increasing), data uint8[n, 16] (pre-fault
    plaintexts), kind int8[n] (KIND_* codes) and delay_us float64[n] (in
    (0, MAX_DELAY_US] for a delay block, 0 for any other). Each column is
    checked as a whole."""

    index: np.ndarray
    data: np.ndarray
    kind: np.ndarray
    delay_us: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.index)
        _freeze_columns(self, "blocks", ("index", np.int64, (n,)), ("data", np.uint8, (n, BLOCK_SIZE)),
                        ("kind", np.int8, (n,)), ("delay_us", np.float64, (n,)))
        # jitter is indexed by block number, where a negative index would wrap around
        if n < 1 or self.index[0] < 0 or (np.diff(self.index) <= 0).any():
            raise ValueError("a run needs at least one block, with non-negative, increasing indices")
        delayed = self.kind == KIND_DELAY
        delays = self.delay_us[delayed]
        if (not np.isin(self.kind, (KIND_NONE, KIND_DELAY, KIND_FAULT)).all()
                or not ((0 < delays) & (delays <= MAX_DELAY_US)).all() or self.delay_us[~delayed].any()):
            raise ValueError(f"each block needs a KIND_* code, and a delay_us in (0, {MAX_DELAY_US:g}] "
                             "if and only if it is a delay block")

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a pipeline run except the key. Building one,
    dataclasses.replace included, checks every field, the integer fields' types
    too, and raises ValueError on a bad value, so a RunConfig that exists is valid."""

    n_blocks: int = 1024
    inject_pct: float = 20.0
    workers: int = 1
    seed: int = 1
    mode: Mode = Mode.REAL
    delay_min_us: float = 5_000.0
    delay_max_us: float = 20_000.0
    input_dist: InputDistribution = InputDistribution.ASCII
    work_amplification: int = 1
    # simulated-mode timing model: time_us = base + U(0, jitter) + delay
    base_time_us: float = 100.0
    jitter_us: float = 10.0

    def __post_init__(self) -> None:
        for name, kind in (("mode", Mode), ("input_dist", InputDistribution)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__} member, got {getattr(self, name)!r}")
        _check_integers(self, "n_blocks", "workers", "seed", "work_amplification")
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
        # NaN fails both comparisons
        if not (0 <= self.base_time_us < math.inf and 0 <= self.jitter_us < math.inf):
            raise ValueError("simulated timing parameters must be finite and non-negative")
        # base + U(0, jitter) + delay overflows to inf though each term is finite
        if not math.isfinite(self.base_time_us + self.jitter_us + self.delay_max_us):
            raise ValueError("base_time_us + jitter_us + delay_max_us must be finite")


def generate_blocks(cfg: RunConfig) -> Blocks:
    """Produce cfg.n_blocks untagged blocks with indices 0..n-1, drawn from
    cfg.input_dist under cfg.seed."""
    n = cfg.n_blocks
    low, high = (0, 255) if cfg.input_dist is InputDistribution.UNIFORM else (ASCII_LOW, ASCII_HIGH)
    raw = _rng(cfg.seed, _STREAM_BLOCKS).integers(low, high + 1, size=(n, BLOCK_SIZE), dtype=np.uint8)
    return Blocks(np.arange(n, dtype=np.int64), raw, np.zeros(n, np.int8), np.zeros(n))


def assign_anomalies(blocks: Blocks, cfg: RunConfig) -> Blocks:
    """Tag each block of blocks independently: anomalous with probability
    cfg.inject_pct/100.

    An anomalous block is a delay or a fault with equal probability. Delay
    magnitudes are uniform in [cfg.delay_min_us, cfg.delay_max_us]. Draws
    happen in block order from a dedicated stream of cfg.seed, one schedule
    entry per block of blocks, so the schedule is a pure function of
    (len(blocks), seed, inject_pct, delay range); no other field is read.
    Index and data columns are shared.
    """
    # one double per random() or uniform() call of the block-by-block schedule,
    # drawn at once; a delay is lo + (hi - lo) * u, as Generator.uniform computes it
    u = _rng(cfg.seed, _STREAM_SCHEDULE).random(3 * len(blocks)).tolist()
    p = cfg.inject_pct / 100.0
    low, span = cfg.delay_min_us, cfg.delay_max_us - cfg.delay_min_us
    kind, delay_us = bytearray(len(blocks)), [0.0] * len(blocks)
    k = 0
    for i in range(len(blocks)):
        if u[k] >= p:
            k += 1
        elif u[k + 1] >= 0.5:
            kind[i], k = KIND_FAULT, k + 2
        else:
            kind[i], delay_us[i], k = KIND_DELAY, low + span * u[k + 2], k + 3
    return replace(blocks, kind=np.frombuffer(kind, np.int8), delay_us=np.array(delay_us))
