"""AES-128-ECB encryption with per-block timing.

The scalar cipher runs the 32-bit T-table form of the FIPS-197 rounds
(Daemen & Rijmen, "The Design of Rijndael", 2002, section 4.2). Each round
computes the state as four big-endian column words. Four 256-entry word
tables Te0..Te3, built from the S-box and xtime, fold SubBytes, ShiftRows
and MixColumns into one lookup per state byte. Each key gets its own copies
of Te0, one per round and column, with that round key word XORed into every
entry, so each of rounds 1 to 9 is 16 lookups and 12 XORs and loads no
round key. The final round, which has no MixColumns, reads four keyed
tables of sbox[x] << 24 and two shared ones of sbox[x] << 16 and
sbox[x] << 8: 16 lookups and 12 XORs as well. Between rounds the state is
carried as its 16 bytes: each round packs its four words and unpacks the
bytes into 16 locals, one pack per round in place of 12 shifts and 12
masks. Pure Python keeps the per-block cost measurable (about 13
microseconds of CPU per block in a real-mode run), which is what the
real-mode timing experiments need.

T-tables are the textbook target of cache-timing attacks (Bernstein 2005,
"Cache-timing attacks on AES"; Osvik, Shamir & Tromer 2006, "Cache Attacks
and Countermeasures: the Case of AES"): each lookup's address depends on a
key-mixed state byte. Folding the round keys into the tables, or carrying
the state as bytes, changes none of that: the keyed tables are still
indexed by secret bytes, and the kernel is still not constant-time. The
byte-wise kernel the T-tables replaced made the same kind of
secret-indexed S-box and xtime lookups, as any CPython tuple lookup does,
so the lab gains no new class of leak. Neither kernel is constant-time;
neither is fit to protect data.

Each key's tables for the scalar kernel, T-tables, round keys and keyed
tables alike, are built on first use from the S-box the module holds at
that moment, and cached under the key and that S-box, so nothing derived
from one S-box is used with another. They take about 0.4 MB and 1 to 2 ms
to build per key, so the first block under a new key costs that much more;
only the scalar kernel builds them. The batched kernel expands its key
afresh on each call, about 9 microseconds per run.

Simulated mode measures no latency, so it encrypts a whole run in one batch
in the calling process: the byte-wise rounds (ShiftRows as a flat 16-element
permutation, MixColumns through an xtime table) as numpy gathers over every
block at once. Real mode times each block and scales across a process pool
of cfg.workers processes, which take a few contiguous slices of the run each
as they free up; threads would serialize on the interpreter lock for this
CPU-bound work. Every pool comes from process_pool, which imports
concurrent.futures and multiprocessing on its first call, so a command that
starts no pool (a simulated or one-worker run, train, predict, kat) never
loads them.
"""

from __future__ import annotations

import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .workload import (
    _STREAM_TIMING,
    BLOCK_SIZE,
    FAULT_MASK,
    KIND_FAULT,
    TAGS,
    Blocks,
    Mode,
    RunConfig,
    _rng,
    assign_anomalies,
    generate_blocks,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
        # bytes only: the keyed tables are cached by key, and struct unpacks it
        if not isinstance(self.data, bytes) or len(self.data) != BLOCK_SIZE:
            got = f"{len(self.data)} bytes" if isinstance(self.data, bytes) else type(self.data).__name__
            raise ValueError(f"key must be {BLOCK_SIZE} bytes, got {got}")

    @classmethod
    def from_hex(cls, text: str) -> "Key128":
        try:
            data = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise ValueError(f"key is not valid hex: {text!r}") from exc
        return cls(data)


DEFAULT_KEY_HEX = "000102030405060708090a0b0c0d0e0f"


_WORDS = struct.Struct(">4I")


def _expand_key(key: bytes, sbox: Tuple[int, ...]) -> Tuple[int, ...]:
    """Expand 16 key bytes under sbox into 11 round keys of four big-endian
    words each, 44 words in all. Callers pass the module's SBOX as it is at
    call time; each call expands the key afresh, about 9 microseconds."""
    words = list(_WORDS.unpack(key))
    for i in range(4, 4 * (N_ROUNDS + 1)):
        w = words[i - 1]
        if i % 4 == 0:  # RotWord, SubWord, Rcon
            w = (sbox[w >> 16 & 0xFF] << 24 | sbox[w >> 8 & 0xFF] << 16 | sbox[w & 0xFF] << 8
                 | sbox[w >> 24]) ^ RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ w)
    return tuple(words)


class _Schedule(NamedTuple):
    """One key's tables for the scalar kernel, with each round key folded in.

    Te0[x] is the MixColumns image (2s, s, s, 3s) of s = sbox[x] standing in
    row 0 of a column, as one big-endian word; Te1..Te3 are the same column
    for rows 1..3, i.e. Te0 rotated right by 8, 16 and 24 bits.

    first is round key 0, XORed into the state before round 1. rounds holds,
    for each of rounds 1 to 9, four copies of Te0, one per output column c,
    each XORed with that round's key word c; Te1..Te3 are shared. last holds
    sbox[x] << 24 XORed with round key 10's word c, for each column c, and
    byte16 and byte8 are sbox[x] << 16 and sbox[x] << 8, shared by all four
    columns. So a round is 16 lookups and 12 XORs, with no round-key loads.
    """

    first: Tuple[int, ...]
    rounds: Tuple[Tuple[Tuple[int, ...], ...], ...]
    te1: Tuple[int, ...]
    te2: Tuple[int, ...]
    te3: Tuple[int, ...]
    last: Tuple[Tuple[int, ...], ...]
    byte16: Tuple[int, ...]
    byte8: Tuple[int, ...]
    sbox: Tuple[int, ...]


# about 0.4 MB of tables per key; one run encrypts under one key
@lru_cache(maxsize=4)
def _schedule(key: bytes, sbox: Tuple[int, ...]) -> _Schedule:
    """Build the scalar kernel's tables for one key under sbox, about 1 to 2
    ms of work per new key. Callers pass the module's SBOX as it is at call
    time."""
    w = _expand_key(key, sbox)
    te0 = tuple(XTIME[s] << 24 | s << 16 | s << 8 | XTIME[s] ^ s for s in sbox)
    te1, te2, te3 = (tuple((t >> r | t << 32 - r) & 0xFFFFFFFF for t in te0) for r in (8, 16, 24))
    rounds = tuple(tuple(tuple(t ^ k for t in te0) for k in w[i:i + 4])
                   for i in range(4, 4 * N_ROUNDS, 4))
    last = tuple(tuple(s << 24 ^ k for s in sbox) for k in w[40:])
    return _Schedule(w[:4], rounds, te1, te2, te3, last,
                     tuple(s << 16 for s in sbox), tuple(s << 8 for s in sbox), sbox)


def _encrypt(block: bytes, schedule: _Schedule) -> bytes:
    """Encrypt one 16-byte block under schedule's tables.

    Between rounds the state is carried as its 16 bytes a0..a15, the four
    big-endian column words laid end to end (column c is a[4c] to a[4c + 3],
    row 0 first). Each round packs its four output words and unpacks the
    bytes into the 16 locals, so every table index is a plain local, and
    iterating bytes yields small ints, which CPython caches. Taking the
    index bytes out of four words instead costs 12 shifts and 12 masks per
    round, about as long in CPython as the 16 lookups themselves; one pack
    per round costs far less.
    """
    (k0, k1, k2, k3), rounds, te1, te2, te3, (l0, l1, l2, l3), b16, b8, sbox = schedule
    s0, s1, s2, s3 = _WORDS.unpack(block)
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = _WORDS.pack(
        s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for t0, t1, t2, t3 in rounds:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = _WORDS.pack(
            t0[a0] ^ te1[a5] ^ te2[a10] ^ te3[a15],
            t1[a4] ^ te1[a9] ^ te2[a14] ^ te3[a3],
            t2[a8] ^ te1[a13] ^ te2[a2] ^ te3[a7],
            t3[a12] ^ te1[a1] ^ te2[a6] ^ te3[a11],
        )
    return _WORDS.pack(
        l0[a0] ^ b16[a5] ^ b8[a10] ^ sbox[a15],
        l1[a4] ^ b16[a9] ^ b8[a14] ^ sbox[a3],
        l2[a8] ^ b16[a13] ^ b8[a2] ^ sbox[a7],
        l3[a12] ^ b16[a1] ^ b8[a6] ^ sbox[a11],
    )


_SBOX_ARRAY = np.array(SBOX, dtype=np.uint8)
_XTIME_ARRAY = np.array(XTIME, dtype=np.uint8)
# column-local rotation: entry r of a column is mixed with entry r + 1
_NEXT_IN_COLUMN = [1, 2, 3, 0]


def encrypt_batch(states: np.ndarray, key: bytes) -> np.ndarray:
    """Encrypt uint8[n, 16] blocks in ECB mode: the byte-wise FIPS-197 rounds,
    each one numpy gather or XOR over all n states at once."""
    words = np.array(_expand_key(key, SBOX), dtype=">u4")
    round_keys = words.view(np.uint8).reshape(N_ROUNDS + 1, BLOCK_SIZE)
    s = states ^ round_keys[0]
    for rnd in range(1, N_ROUNDS):
        t = _SBOX_ARRAY[s[:, SHIFT_ROWS]].reshape(-1, 4, 4)
        x = t[:, :, 0] ^ t[:, :, 1] ^ t[:, :, 2] ^ t[:, :, 3]
        t ^= x[:, :, None] ^ _XTIME_ARRAY[t ^ t[:, :, _NEXT_IN_COLUMN]]
        s = t.reshape(-1, 16) ^ round_keys[rnd]
    return _SBOX_ARRAY[s[:, SHIFT_ROWS]] ^ round_keys[N_ROUNDS]


def aes128_encrypt_block(block: bytes, key: Key128) -> bytes:
    """Encrypt one 16-byte block in ECB mode. The first block under a new key
    also builds that key's tables, about 1 to 2 ms; the four most recent
    keys' tables stay cached."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return _encrypt(block, _schedule(key.data, SBOX))


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
    """One vector's published ciphertext and each kernel's output, as
    (kernel, ciphertext hex) pairs."""

    name: str
    expected: str
    actual: Tuple[Tuple[str, str], ...]

    @property
    def mismatches(self) -> List[Tuple[str, str]]:
        return [(kernel, got) for kernel, got in self.actual if got != self.expected]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_known_answer_suite() -> List[KatResult]:
    """Encrypt every published vector with the scalar and the batched kernel,
    which share no round code, and report expected vs actual for each."""
    results = []
    for name, key_hex, pt_hex, ct_hex in KAT_VECTORS:
        key, plaintext = Key128.from_hex(key_hex), bytes.fromhex(pt_hex)
        scalar = aes128_encrypt_block(plaintext, key)
        batch = encrypt_batch(np.frombuffer(plaintext, np.uint8).reshape(1, BLOCK_SIZE), key.data)
        actual = (("scalar", scalar.hex()), ("batch", batch.tobytes().hex()))
        results.append(KatResult(name, ct_hex, actual))
    return results


class BlockRecord(NamedTuple):
    """One encrypted block: what went in (post-fault), what came out, and when."""

    index: int
    plaintext: bytes
    ciphertext: bytes
    time_us: float
    tag: tuple  # the workload.AnomalyTag of its kind, one of TAGS


class PipelineError(RuntimeError):
    """The worker pool could not be started or died mid-run."""


def encrypt_timed(plain: bytes, delays_us: Sequence[float], key: bytes,
                  work_amplification: int) -> Tuple[bytes, List[float]]:
    """Encrypt 16-byte blocks laid end to end one at a time; return the
    ciphertexts laid end to end and each block's latency in microseconds: a
    monotonic span over its sleep (delays_us[j] > 0) and every encryption pass.
    Raises ValueError, before any block is timed, unless plain holds exactly
    one block per delay and work_amplification is at least 1."""
    if len(plain) != BLOCK_SIZE * len(delays_us):
        raise ValueError(f"plain must hold {len(delays_us)} blocks of {BLOCK_SIZE} bytes, "
                         f"one per delay, got {len(plain)} bytes")
    if work_amplification < 1:
        raise ValueError(f"work_amplification must be at least 1, got {work_amplification}")
    schedule = _schedule(key, SBOX)
    ciphertexts, times = [], []
    for at, delay_us in zip(range(0, len(plain), BLOCK_SIZE), delays_us):
        block = plain[at:at + BLOCK_SIZE]
        start = time.perf_counter()
        if delay_us:
            time.sleep(delay_us / 1e6)
        for _ in range(work_amplification):
            ciphertext = _encrypt(block, schedule)
        times.append((time.perf_counter() - start) * 1e6)
        ciphertexts.append(ciphertext)
    return b"".join(ciphertexts), times


def process_pool(workers: int) -> Executor:
    """Start a pool of workers processes; the first call imports
    concurrent.futures and multiprocessing.

    The pool uses the start method in force, except that forkserver (Linux's
    default from Python 3.14) becomes fork: under forkserver the workers are
    children of the server process, not of the caller, so the caller's
    RUSAGE_CHILDREN, which bench reads as peak_children_mb, would miss them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = multiprocessing.get_start_method()
    context = multiprocessing.get_context("fork" if method == "forkserver" else method)
    return ProcessPoolExecutor(workers, mp_context=context)


# real mode with several workers cuts a run into this many slices per worker,
# so a worker that finishes early takes another slice instead of idling
_SLICES_PER_WORKER = 4


def encrypt_blocks(blocks: Blocks, key: Key128, cfg: RunConfig,
                   pool: Optional[Executor] = None) -> List[BlockRecord]:
    """Encrypt tagged blocks into one record per block, in block order.

    Simulated mode encrypts them all in one batch in this process and models
    block i's latency as (base + U(0, jitter)) + delay, where the jitter is
    draw i of one stream of the run seed, so it depends on (seed, index)
    alone. Real mode times each block across cfg.workers processes: those of
    pool, an executor with cfg.workers processes, or else of a process_pool
    started and shut down within this call.
    """
    index, delay_us = blocks.index, blocks.delay_us
    plain = blocks.data.copy()
    plain[blocks.kind == KIND_FAULT, 0] ^= FAULT_MASK
    if cfg.mode is Mode.SIMULATED:
        cipher = encrypt_batch(plain, key.data).tobytes()
        jitter = _rng(cfg.seed, _STREAM_TIMING).uniform(0.0, cfg.jitter_us, index[-1] + 1)[index]
        time_us = ((cfg.base_time_us + jitter) + delay_us).tolist()
    else:  # contiguous slices of the run, handed to workers as they free up
        encrypt = partial(encrypt_timed, key=key.data, work_amplification=cfg.work_amplification)
        n_slices = 1 if cfg.workers == 1 else _SLICES_PER_WORKER * cfg.workers
        plains = [part.tobytes() for part in np.array_split(plain, n_slices)]
        delays = [part.tolist() for part in np.array_split(delay_us, n_slices)]
        if cfg.workers == 1:
            parts = list(map(encrypt, plains, delays))
        else:
            from concurrent.futures.process import BrokenProcessPool

            try:
                with process_pool(cfg.workers) if pool is None else nullcontext(pool) as live:
                    parts = list(live.map(encrypt, plains, delays))
            except (OSError, BrokenProcessPool) as exc:
                raise PipelineError(f"worker pool failed: {exc}") from exc
        cipher = b"".join(c for c, _ in parts)
        time_us = [t for _, times in parts for t in times]
    block = np.dtype((np.void, BLOCK_SIZE))  # tolist gives one bytes object per block
    # tuple.__new__ skips the named tuple's Python-level __new__ frame
    return list(map(tuple.__new__, repeat(BlockRecord),
                    zip(index.tolist(), np.frombuffer(plain, block).tolist(),
                        np.frombuffer(cipher, block).tolist(), time_us,
                        map(TAGS.__getitem__, blocks.kind.tolist()))))


def run_pipeline(cfg: RunConfig, key: Key128, pool: Optional[Executor] = None) -> List[BlockRecord]:
    """Generate, tag, and encrypt one run; records come back sorted by index.
    A real-mode run with several workers runs on pool when one is given."""
    return encrypt_blocks(assign_anomalies(generate_blocks(cfg), cfg), key, cfg, pool)
