import dataclasses

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

import aeslab.cipher as cipher_mod
from aeslab.cipher import (
    KAT_VECTORS,
    BlockRecord,
    Key128,
    PipelineError,
    _encrypt,
    _schedule,
    aes128_encrypt_block,
    encrypt_batch,
    encrypt_blocks,
    encrypt_timed,
    run_known_answer_suite,
    run_pipeline,
)
from aeslab.workload import (
    KIND_DELAY,
    KIND_FAULT,
    KIND_NONE,
    TAGS,
    AnomalyKind,
    Blocks,
    Mode,
    RunConfig,
    assign_anomalies,
    generate_blocks,
)

# published AES-128 single-block vectors (key, plaintext, ciphertext)
FROZEN_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]


_CODES = {AnomalyKind.NONE: KIND_NONE, AnomalyKind.DELAY: KIND_DELAY, AnomalyKind.FAULT: KIND_FAULT}


def _blocks(index, data, kinds=None, delays=None):
    """Blocks from block numbers, 16-byte plaintexts, AnomalyKinds (default
    none) and delays in microseconds (default 0)."""
    n = len(index)
    return Blocks(
        np.array(index, np.int64),
        np.frombuffer(b"".join(data), np.uint8).reshape(n, 16),
        np.array([_CODES[k] for k in kinds or [AnomalyKind.NONE] * n], np.int8),
        np.array(delays or [0.0] * n, np.float64),
    )


def _library_encrypt(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _library_decrypt(key: bytes, block: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


@pytest.mark.parametrize("key_hex, pt_hex, ct_hex", FROZEN_VECTORS)
def test_published_vectors(key_hex, pt_hex, ct_hex):
    out = aes128_encrypt_block(bytes.fromhex(pt_hex), Key128.from_hex(key_hex))
    assert out.hex() == ct_hex


def test_known_answer_suite_reports_all_passing():
    results = run_known_answer_suite()
    assert len(results) >= 1
    assert all(r.ok for r in results)


def test_fuzz_against_independent_library():
    rng = np.random.default_rng(424242)
    for _ in range(200):
        key = rng.bytes(16)
        block = rng.bytes(16)
        assert aes128_encrypt_block(block, Key128(key)) == _library_encrypt(key, block)


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_scalar_cipher_matches_independent_library(key, block):
    assert aes128_encrypt_block(block, Key128(key)) == _library_encrypt(key, block)


def test_ecb_is_deterministic_and_chain_free():
    key = Key128.from_hex("2b7e151628aed2a6abf7158809cf4f3c")
    block = bytes(range(16))
    first = aes128_encrypt_block(block, key)
    assert aes128_encrypt_block(block, key) == first
    # two equal blocks at different run positions encrypt identically
    cfg = RunConfig(mode=Mode.SIMULATED, jitter_us=0.0)
    rec_a, rec_b = encrypt_blocks(_blocks([0, 7], [block, block]), key, cfg)
    assert rec_a.ciphertext == rec_b.ciphertext == first


# two fixed keys; a plaintext that differs from a base block in one byte only
# sends that byte through its own lane of the round's index pattern
_WIRING_KEYS = ("000102030405060708090a0b0c0d0e0f", "2b7e151628aed2a6abf7158809cf4f3c")


@pytest.mark.parametrize("key_hex", _WIRING_KEYS, ids=["key-fips197", "key-sp800-38a"])
@pytest.mark.parametrize("position", range(16), ids=[f"byte{i}" for i in range(16)])
def test_each_plaintext_byte_alone_matches_independent_library(key_hex, position):
    key = Key128.from_hex(key_hex)
    base = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    flipped = bytearray(base)
    flipped[position] ^= 0xA5
    out = aes128_encrypt_block(bytes(flipped), key)
    assert out == _library_encrypt(key.data, bytes(flipped))
    assert out != aes128_encrypt_block(base, key)


@pytest.mark.parametrize("plain, delays_us, work_amplification", [
    (bytes(48), [0.0], 1),  # three blocks, one delay
    (bytes(20), [0.0, 0.0], 1),  # not a whole number of blocks
    (bytes(16), [0.0], 0),  # no encryption pass to time
], ids=["blocks-outnumber-delays", "partial-block", "zero-amplification"])
def test_encrypt_timed_refuses_mismatched_arguments(plain, delays_us, work_amplification):
    with pytest.raises(ValueError):
        encrypt_timed(plain, delays_us, bytes(16), work_amplification)


def test_input_validation():
    key = Key128(bytes(16))
    with pytest.raises(ValueError):
        aes128_encrypt_block(bytes(15), key)
    with pytest.raises(ValueError):
        Key128(bytes(7))
    with pytest.raises(ValueError):
        Key128.from_hex("zz")
    # 16 of something else than bytes: a str key used to fail at its first
    # block in struct, a bytearray in the table cache
    for data in ("a" * 16, bytearray(16)):
        with pytest.raises(ValueError, match="key must be 16 bytes"):
            Key128(data)


def test_fault_tag_changes_ciphertext_and_survives_decryption():
    key = Key128.from_hex("000102030405060708090a0b0c0d0e0f")
    data = bytes(range(16))
    cfg = RunConfig(mode=Mode.SIMULATED, jitter_us=0.0)
    clean, faulted = encrypt_blocks(
        _blocks([0, 1], [data, data], [AnomalyKind.NONE, AnomalyKind.FAULT]), key, cfg
    )
    assert clean.ciphertext != faulted.ciphertext
    assert faulted.plaintext[0] == data[0] ^ 0xFF
    # the corruption is observable end to end through an independent decryption
    recovered = _library_decrypt(key.data, faulted.ciphertext)
    assert recovered == bytes([data[0] ^ 0xFF]) + data[1:]
    assert clean.time_us == faulted.time_us  # faults leave timing untouched


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.sampled_from(Mode))
def test_fault_xor_flips_the_first_byte_of_fault_blocks_only(data, mode):
    key = Key128.from_hex("2b7e151628aed2a6abf7158809cf4f3c")
    kinds = [AnomalyKind.NONE, AnomalyKind.FAULT, AnomalyKind.DELAY]
    blocks = _blocks([0, 1, 2], [data] * 3, kinds, [0.0, 0.0, 1.0])
    clean, faulted, delayed = encrypt_blocks(blocks, key, RunConfig(mode=mode))
    for record, code in zip((clean, faulted, delayed), blocks.kind.tolist()):
        assert record.tag is TAGS[code]  # one shared tag per kind
    assert clean.plaintext == delayed.plaintext == data
    assert faulted.plaintext == bytes([data[0] ^ 0xFF]) + data[1:]
    for record in (clean, faulted, delayed):
        assert record.ciphertext == _library_encrypt(key.data, record.plaintext)
    assert blocks.data.tobytes() == data * 3  # the input columns are left alone


def test_real_mode_delay_shows_up_in_latency():
    key = Key128(bytes(16))
    cfg = RunConfig(mode=Mode.REAL)
    blocks = _blocks([0], [bytes(16)], [AnomalyKind.DELAY], [5000.0])
    (record,) = encrypt_blocks(blocks, key, cfg)
    assert record.time_us >= 5000.0
    assert record.tag.kind is not AnomalyKind.NONE
    _, (time_us,) = encrypt_timed(bytes(16), [5000.0], key.data, cfg.work_amplification)
    assert time_us >= 5000.0


def test_simulated_time_formula_with_zero_jitter():
    key = Key128(bytes(16))
    cfg = RunConfig(mode=Mode.SIMULATED, base_time_us=100.0, jitter_us=0.0, seed=9)
    plain, delayed = encrypt_blocks(
        _blocks([3, 4], [bytes(16)] * 2, [AnomalyKind.NONE, AnomalyKind.DELAY], [0.0, 7000.0]),
        key, cfg,
    )
    assert plain.time_us == 100.0
    assert delayed.time_us == 7100.0


def test_simulated_jitter_is_bounded_and_index_keyed():
    key = Key128(bytes(16))
    cfg = RunConfig(mode=Mode.SIMULATED, base_time_us=100.0, jitter_us=10.0, seed=5)
    records = encrypt_blocks(_blocks(range(32), [bytes(16)] * 32), key, cfg)
    times = {rec.index: rec.time_us for rec in records}
    assert all(100.0 <= t <= 110.0 for t in times.values())
    (again,) = encrypt_blocks(_blocks([17], [bytes(16)]), key, cfg)
    assert again.time_us == times[17]
    assert len(set(times.values())) > 1


def test_simulated_work_amplification_does_not_change_time():
    key = Key128(bytes(16))
    base = RunConfig(mode=Mode.SIMULATED, jitter_us=0.0)
    amped = dataclasses.replace(base, work_amplification=50)
    blocks = _blocks([0], [bytes(16)])
    assert encrypt_blocks(blocks, key, base) == encrypt_blocks(blocks, key, amped)


def test_run_pipeline_returns_sorted_complete_records():
    cfg = RunConfig(n_blocks=64, inject_pct=25.0, seed=13, mode=Mode.SIMULATED)
    records = run_pipeline(cfg, Key128(bytes(16)))
    assert [r.index for r in records] == list(range(64))
    assert all(isinstance(r, BlockRecord) for r in records)


def test_run_pipeline_anomaly_count_near_expectation():
    cfg = RunConfig(n_blocks=1024, inject_pct=20.0, seed=21, mode=Mode.SIMULATED)
    records = run_pipeline(cfg, Key128(bytes(16)))
    hits = sum(r.tag.kind is not AnomalyKind.NONE for r in records)
    sigma = (1024 * 0.2 * 0.8) ** 0.5
    assert abs(hits - 204.8) <= 3 * sigma


def _without_time(records):
    return [r._replace(time_us=0.0) for r in records]


def test_run_pipeline_real_identical_across_worker_counts():
    key = Key128.from_hex("2b7e151628aed2a6abf7158809cf4f3c")
    base = RunConfig(n_blocks=48, inject_pct=0.0, seed=3, mode=Mode.REAL)
    reference = _without_time(run_pipeline(base, key))
    for workers in (2, 3):
        cfg = dataclasses.replace(base, workers=workers)
        assert _without_time(run_pipeline(cfg, key)) == reference


def test_records_identical_across_modes_and_worker_counts():
    # 37 blocks split unevenly into slices; 1-2 us delays keep real mode quick
    key = Key128.from_hex("2b7e151628aed2a6abf7158809cf4f3c")
    base = RunConfig(n_blocks=37, inject_pct=60.0, seed=23, mode=Mode.REAL,
                     delay_min_us=1.0, delay_max_us=2.0)
    runs = [run_pipeline(cfg, key) for cfg in (
        base, dataclasses.replace(base, workers=2), dataclasses.replace(base, mode=Mode.SIMULATED))]
    kinds = {r.tag.kind for r in runs[0]}
    assert kinds == set(AnomalyKind)
    reference = _without_time(runs[0])
    assert [r.index for r in reference] == list(range(37))
    for records in runs[1:]:
        assert _without_time(records) == reference
    delays = assign_anomalies(generate_blocks(base), base).delay_us.tolist()
    assert [d > 0 for d in delays] == [r.tag.kind is AnomalyKind.DELAY for r in runs[0]]
    for records in runs[:2]:  # real-mode latencies cover the injected sleep
        assert all(r.time_us >= d and r.time_us > 0 for r, d in zip(records, delays))
    # more workers than blocks leaves a worker an empty slice
    one = dataclasses.replace(base, n_blocks=1, workers=2)
    assert _without_time(run_pipeline(one, key)) == reference[:1]


class ExplodingPool:
    def __init__(self, *args, **kwargs):
        raise OSError("no processes for you")


def test_worker_pool_failure_raises_pipeline_error(monkeypatch):
    monkeypatch.setattr(cipher_mod, "process_pool", ExplodingPool)
    cfg = RunConfig(n_blocks=32, inject_pct=0.0, workers=2, mode=Mode.REAL)
    with pytest.raises(PipelineError):
        run_pipeline(cfg, Key128(bytes(16)))


def test_simulated_mode_starts_no_pool(monkeypatch):
    key = Key128(bytes(16))
    base = RunConfig(n_blocks=96, inject_pct=30.0, seed=3, mode=Mode.SIMULATED)
    reference = run_pipeline(base, key)
    monkeypatch.setattr(cipher_mod, "process_pool", ExplodingPool)
    assert run_pipeline(dataclasses.replace(base, workers=2), key) == reference


def test_only_real_mode_builds_the_scalar_tables():
    # the keyed tables cost about 0.4 MB and 1 to 2 ms per key; the batch
    # kernel of simulated mode reads only the round-key words
    key = Key128(bytes(range(16)))
    cipher_mod._schedule.cache_clear()
    run_pipeline(RunConfig(n_blocks=64, inject_pct=30.0, seed=3, mode=Mode.SIMULATED), key)
    assert cipher_mod._schedule.cache_info().currsize == 0
    run_pipeline(RunConfig(n_blocks=4, inject_pct=0.0, seed=3, mode=Mode.REAL), key)
    assert cipher_mod._schedule.cache_info().currsize == 1


def test_encrypt_blocks_matches_per_block_calls():
    key = Key128(bytes(16))
    cfg = RunConfig(n_blocks=24, mode=Mode.REAL, seed=2, inject_pct=0.0, workers=2)  # through the pool
    blocks = generate_blocks(cfg)
    via_pool = encrypt_blocks(blocks, key, cfg)
    assert [r.index for r in via_pool] == list(range(24))
    for record, row in zip(via_pool, blocks.data):
        ciphertext, _ = encrypt_timed(row.tobytes(), [0.0], key.data, cfg.work_amplification)
        assert (record.plaintext, record.ciphertext) == (row.tobytes(), ciphertext)
        assert record.tag is TAGS[KIND_NONE]


class InlinePool:
    """An executor stand-in that runs map in this process and records how
    many tasks each call handed out."""

    def __init__(self):
        self.tasks = []

    def map(self, fn, *iterables):
        args = list(zip(*iterables))
        self.tasks.append(len(args))
        return [fn(*a) for a in args]


def test_real_mode_hands_out_a_few_slices_per_worker_on_a_given_pool():
    key = Key128(bytes(16))
    blocks = generate_blocks(RunConfig(n_blocks=50, seed=6))
    cfg = RunConfig(mode=Mode.REAL, inject_pct=0.0, workers=3)
    pool = InlinePool()
    records = encrypt_blocks(blocks, key, cfg, pool)
    assert pool.tasks == [4 * cfg.workers]
    solo = encrypt_blocks(blocks, key, dataclasses.replace(cfg, workers=1), pool)
    assert pool.tasks == [4 * cfg.workers]  # one worker runs in this process
    assert _without_time(records) == _without_time(solo)


# ---------------------------------------------------------------- batched AES


def _batch(blocks):
    return np.frombuffer(b"".join(blocks), np.uint8).reshape(-1, 16)


@pytest.mark.parametrize("n", [1, 2, 4096])
def test_batched_aes_matches_scalar_and_library_on_uniform_blocks(n):
    rng = np.random.default_rng(n)
    key = rng.bytes(16)
    blocks = [rng.bytes(16) for _ in range(n)]
    got = [row.tobytes() for row in encrypt_batch(_batch(blocks), key)]
    assert got == [_encrypt(b, _schedule(key, cipher_mod.SBOX)) for b in blocks]
    assert b"".join(got) == _library_encrypt(key, b"".join(blocks))


def test_batched_aes_matches_every_known_answer_vector_in_one_batch():
    # the batch has one key, so encrypt every vector's plaintext under every vector's key
    plaintexts = [bytes.fromhex(pt) for _, _, pt, _ in KAT_VECTORS]
    for _, key_hex, pt_hex, ct_hex in KAT_VECTORS:
        key = bytes.fromhex(key_hex)
        out = encrypt_batch(_batch(plaintexts), key)
        assert out[plaintexts.index(bytes.fromhex(pt_hex))].tobytes().hex() == ct_hex
        assert out.tobytes() == _library_encrypt(key, b"".join(plaintexts))


@pytest.mark.parametrize("work_amplification", [1, 3])
def test_timed_and_batched_kernels_return_the_same_ciphertexts(work_amplification):
    rng = np.random.default_rng(77)
    key = rng.bytes(16)
    plain = rng.bytes(16 * 64)
    ciphertexts, times = encrypt_timed(plain, [0.0] * 64, key, work_amplification)
    assert ciphertexts == encrypt_batch(_batch([plain]), key).tobytes()
    assert len(times) == 64


def test_batched_aes_leaves_its_input_alone():
    states = _batch([bytes(range(16))] * 3)
    before = states.copy()
    encrypt_batch(states, bytes(16))
    assert np.array_equal(states, before)
