"""AES-128-ECB encryption with per-block timing.

The cipher is implemented directly from the FIPS-197 construction: byte
substitution through the fixed S-box, ShiftRows as a flat 16-element
permutation, MixColumns through an xtime lookup table, and an expanded
11-round key schedule. Pure Python keeps the per-block cost measurable
(tens of microseconds), which is what the real-mode timing experiments need.

Simulated mode measures no latency, so it encrypts a whole run in one batch
in the calling process: the same rounds as numpy gathers over every block
at once. Real mode times each block and scales across a process pool of
cfg.workers processes; threads would serialize on the interpreter lock for
this CPU-bound work.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import List, Sequence, Tuple

import numpy as np

from .workload import (
    _STREAM_TIMING,
    BLOCK_SIZE,
    FAULT_MASK,
    AnomalyKind,
    AnomalyTag,
    Mode,
    PlainBlock,
    RunConfig,
    _rng,
    apply_fault,
    assign_anomalies,
    generate_blocks,
)

SBOX = (
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
)

# xtime(x) = x*2 in GF(2^8) mod x^8 + x^4 + x^3 + x + 1
XTIME = tuple(((x << 1) ^ 0x1B) & 0xFF if x & 0x80 else x << 1 for x in range(256))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# flat-state ShiftRows: byte i of the new state comes from SHIFT_ROWS[i]
SHIFT_ROWS = tuple(4 * ((i // 4 + i % 4) % 4) + i % 4 for i in range(16))

N_ROUNDS = 10


@dataclass(frozen=True)
class Key128:
    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != BLOCK_SIZE:
            raise ValueError(f"key must be {BLOCK_SIZE} bytes, got {len(self.data)}")

    @classmethod
    def from_hex(cls, text: str) -> "Key128":
        try:
            data = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise ValueError(f"key is not valid hex: {text!r}") from exc
        return cls(data)

    def hex(self) -> str:
        return self.data.hex()


DEFAULT_KEY_HEX = "000102030405060708090a0b0c0d0e0f"


@lru_cache(maxsize=32)
def _expand_key(key: bytes) -> Tuple[Tuple[int, ...], ...]:
    """Expand 16 key bytes into 11 flat 16-byte round keys."""
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        w = list(words[i - 1])
        if i % 4 == 0:
            w = [SBOX[w[1]] ^ RCON[i // 4 - 1], SBOX[w[2]], SBOX[w[3]], SBOX[w[0]]]
        words.append([a ^ b for a, b in zip(words[i - 4], w)])
    return tuple(tuple(words[4 * r] + words[4 * r + 1] + words[4 * r + 2] + words[4 * r + 3])
                 for r in range(N_ROUNDS + 1))


def _encrypt(block: bytes, round_keys: Sequence[Sequence[int]]) -> bytes:
    sbox = SBOX
    xt = XTIME
    perm = SHIFT_ROWS
    rk = round_keys[0]
    s = [block[i] ^ rk[i] for i in range(16)]
    for rnd in range(1, N_ROUNDS):
        t = [sbox[s[perm[i]]] for i in range(16)]
        rk = round_keys[rnd]
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
            x = a0 ^ a1 ^ a2 ^ a3
            s[c] = a0 ^ x ^ xt[a0 ^ a1] ^ rk[c]
            s[c + 1] = a1 ^ x ^ xt[a1 ^ a2] ^ rk[c + 1]
            s[c + 2] = a2 ^ x ^ xt[a2 ^ a3] ^ rk[c + 2]
            s[c + 3] = a3 ^ x ^ xt[a3 ^ a0] ^ rk[c + 3]
    rk = round_keys[N_ROUNDS]
    return bytes(sbox[s[perm[i]]] ^ rk[i] for i in range(16))


_SBOX_ARRAY = np.array(SBOX, dtype=np.uint8)
_XTIME_ARRAY = np.array(XTIME, dtype=np.uint8)
# column-local rotation: entry r of a column is mixed with entry r + 1
_NEXT_IN_COLUMN = [1, 2, 3, 0]


def encrypt_batch(states: np.ndarray, key: bytes) -> np.ndarray:
    """Encrypt uint8[n, 16] blocks in ECB mode: _encrypt's rounds, each one
    numpy gather or XOR over all n states at once."""
    round_keys = np.array(_expand_key(key), dtype=np.uint8)
    s = states ^ round_keys[0]
    for rnd in range(1, N_ROUNDS):
        t = _SBOX_ARRAY[s[:, SHIFT_ROWS]].reshape(-1, 4, 4)
        x = t[:, :, 0] ^ t[:, :, 1] ^ t[:, :, 2] ^ t[:, :, 3]
        t ^= x[:, :, None] ^ _XTIME_ARRAY[t ^ t[:, :, _NEXT_IN_COLUMN]]
        s = t.reshape(-1, 16) ^ round_keys[rnd]
    return _SBOX_ARRAY[s[:, SHIFT_ROWS]] ^ round_keys[N_ROUNDS]


def aes128_encrypt_block(block: bytes, key: Key128) -> bytes:
    """Encrypt one 16-byte block in ECB mode."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return _encrypt(block, _expand_key(key.data))


# FIPS-197 appendix B/C example vectors plus NIST SP 800-38A F.1.1 ECB cases
KAT_VECTORS: Tuple[Tuple[str, str, str, str], ...] = (
    ("fips197-c1", "000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("fips197-b", "2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"),
    ("sp800-38a-1", "2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("sp800-38a-2", "2b7e151628aed2a6abf7158809cf4f3c",
     "ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("sp800-38a-3", "2b7e151628aed2a6abf7158809cf4f3c",
     "30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("sp800-38a-4", "2b7e151628aed2a6abf7158809cf4f3c",
     "f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
)


@dataclass(frozen=True)
class KatResult:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def run_known_answer_suite() -> List[KatResult]:
    """Encrypt every published vector and report expected vs actual."""
    results = []
    for name, key_hex, pt_hex, ct_hex in KAT_VECTORS:
        actual = aes128_encrypt_block(bytes.fromhex(pt_hex), Key128.from_hex(key_hex))
        results.append(KatResult(name, ct_hex, actual.hex()))
    return results


@dataclass(frozen=True)
class BlockRecord:
    """One encrypted block: what went in (post-fault), what came out, and when."""

    index: int
    plaintext: bytes
    ciphertext: bytes
    time_us: float
    tag: AnomalyTag

    @property
    def truth_label(self) -> bool:
        return self.tag.is_anomaly


class PipelineError(RuntimeError):
    """The worker pool could not be started or died mid-run."""


def encrypt_timed(block: PlainBlock, key: Key128, cfg: RunConfig) -> BlockRecord:
    """Encrypt one block and measure its latency.

    The monotonic span covers the injected sleep (delay tags) and
    cfg.work_amplification encryption passes.
    """
    effective = apply_fault(block)
    schedule = _expand_key(key.data)
    tag = block.tag
    start = time.perf_counter()
    if tag.kind is AnomalyKind.DELAY:
        time.sleep(tag.delay_us / 1e6)
    for _ in range(cfg.work_amplification):
        ciphertext = _encrypt(effective.data, schedule)
    time_us = (time.perf_counter() - start) * 1e6
    return BlockRecord(block.index, effective.data, ciphertext, time_us, tag)


def _encrypt_simulated(blocks: Sequence[PlainBlock], key: Key128, cfg: RunConfig) -> List[BlockRecord]:
    """Encrypt every block in one batch and model its latency as
    (base + U(0, jitter)) + delay.

    Block i's jitter is draw i of one stream of the run seed, so it depends
    on (seed, index) alone; the stream is drawn up to the largest index.
    """
    blocks = sorted(blocks, key=lambda b: b.index)
    n = len(blocks)
    if not n:
        return []
    tags = [b.tag for b in blocks]
    index = [b.index for b in blocks]
    plain = np.frombuffer(b"".join(b.data for b in blocks), np.uint8).reshape(n, BLOCK_SIZE).copy()
    plain[[t.kind is AnomalyKind.FAULT for t in tags], 0] ^= FAULT_MASK
    cipher = encrypt_batch(plain, key.data)
    delay = np.fromiter((t.delay_us if t.kind is AnomalyKind.DELAY else 0.0 for t in tags),
                        np.float64, n)
    jitter = 0.0
    if cfg.jitter_us > 0:
        jitter = _rng(cfg.seed, _STREAM_TIMING).uniform(0.0, cfg.jitter_us, index[-1] + 1)[index]
    time_us = (cfg.base_time_us + jitter) + delay
    plain_bytes, cipher_bytes = plain.tobytes(), cipher.tobytes()
    return [
        BlockRecord(i, plain_bytes[at:at + BLOCK_SIZE], cipher_bytes[at:at + BLOCK_SIZE], t, tag)
        for i, at, t, tag in zip(index, range(0, n * BLOCK_SIZE, BLOCK_SIZE), time_us.tolist(), tags)
    ]


def encrypt_blocks(blocks: Sequence[PlainBlock], key: Key128, cfg: RunConfig) -> List[BlockRecord]:
    """Encrypt tagged blocks; records come back sorted by index.

    Simulated mode encrypts them all in one batch in this process. Real mode
    times each block, fanning out across cfg.workers processes.
    """
    if cfg.mode is Mode.SIMULATED:
        return _encrypt_simulated(blocks, key, cfg)
    encrypt = partial(encrypt_timed, key=key, cfg=cfg)
    if cfg.workers == 1:
        records = list(map(encrypt, blocks))
    else:
        chunk = max(1, len(blocks) // (cfg.workers * 8))
        try:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                records = list(pool.map(encrypt, blocks, chunksize=chunk))
        except (OSError, BrokenProcessPool) as exc:
            raise PipelineError(f"worker pool failed: {exc}") from exc
    records.sort(key=lambda r: r.index)
    return records


def run_pipeline(cfg: RunConfig, key: Key128) -> List[BlockRecord]:
    """Generate, tag, and encrypt one run; records come back sorted by index."""
    cfg.validate()
    blocks = generate_blocks(cfg.n_blocks, cfg.input_dist, cfg.seed)
    blocks = assign_anomalies(blocks, cfg.inject_pct, cfg.seed, cfg.delay_min_us, cfg.delay_max_us)
    return encrypt_blocks(blocks, key, cfg)
