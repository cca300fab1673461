import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeslab.workload as workload
from aeslab.workload import (
    ASCII_HIGH,
    ASCII_LOW,
    BLOCK_SIZE,
    MAX_DELAY_US,
    MAX_WORKERS,
    KIND_DELAY,
    KIND_FAULT,
    KIND_NONE,
    TAGS,
    AnomalyKind,
    AnomalyTag,
    Blocks,
    InputDistribution,
    Mode,
    RunConfig,
    assign_anomalies,
    generate_blocks,
)

from aeslab.cipher import Key128, encrypt_blocks

import oracle_schedule


def _uniform(n, **fields):
    """The config of an n-block run of uniform bytes."""
    return RunConfig(n_blocks=n, input_dist=InputDistribution.UNIFORM, **fields)


def _tagged(n, inject_pct, seed, **delays):
    """An n-block uniform run under seed, tagged at inject_pct."""
    cfg = _uniform(n, inject_pct=inject_pct, seed=seed, **delays)
    return assign_anomalies(generate_blocks(cfg), cfg)


def test_generate_blocks_count_and_indices():
    blocks = generate_blocks(_uniform(3, seed=11))
    assert len(blocks) == 3
    assert blocks.index.tolist() == [0, 1, 2]
    assert blocks.data.shape == (3, BLOCK_SIZE)
    assert blocks.kind.tolist() == [KIND_NONE] * 3
    assert blocks.delay_us.tolist() == [0.0] * 3


def test_generate_blocks_deterministic():
    a = generate_blocks(_uniform(64, seed=5))
    b = generate_blocks(_uniform(64, seed=5))
    assert np.array_equal(a.data, b.data)


def test_generate_blocks_seed_changes_bytes():
    a = generate_blocks(_uniform(16, seed=5))
    b = generate_blocks(_uniform(16, seed=6))
    assert not np.array_equal(a.data, b.data)


def test_ascii_distribution_stays_printable():
    blocks = generate_blocks(RunConfig(n_blocks=4096, seed=3))
    assert ASCII_LOW <= blocks.data.min() and blocks.data.max() <= ASCII_HIGH


def test_uniform_distribution_leaves_printable_range():
    blocks = generate_blocks(_uniform(2048, seed=3))
    flat = blocks.data.tobytes()
    assert min(flat) < ASCII_LOW
    assert max(flat) > ASCII_HIGH
    assert len(set(flat)) == 256  # 32 KiB of uniform bytes covers all values


def test_generate_blocks_rejects_empty_workload():
    with pytest.raises(ValueError):
        generate_blocks(_uniform(0, seed=1))


_KIND_NAMES = {KIND_NONE: "none", KIND_DELAY: "delay", KIND_FAULT: "fault"}


def _tags(blocks):
    """(kind, delay_us or None) per block, as the scalar schedule reports them."""
    return [(_KIND_NAMES[k], d if k == KIND_DELAY else None)
            for k, d in zip(blocks.kind.tolist(), blocks.delay_us.tolist())]


def test_assign_anomalies_deterministic():
    cfg = _uniform(256, inject_pct=35.0, seed=9)
    blocks = generate_blocks(cfg)
    first = assign_anomalies(blocks, cfg)
    second = assign_anomalies(blocks, cfg)
    assert _tags(first) == _tags(second)
    assert np.array_equal(first.data, blocks.data)
    assert np.array_equal(first.index, blocks.index)


def test_assign_anomalies_extremes():
    none = _tagged(128, 0.0, seed=2)
    assert (none.kind == KIND_NONE).all()
    full = _tagged(128, 100.0, seed=2)
    assert (full.kind != KIND_NONE).all()


def test_assign_anomalies_rate_tracks_percentage():
    n = 10_000
    tagged = _tagged(n, 20.0, seed=4)
    hits = int((tagged.kind != KIND_NONE).sum())
    sigma = (n * 0.2 * 0.8) ** 0.5
    assert abs(hits - 0.2 * n) <= 3 * sigma


def test_anomaly_kinds_near_fair_coin():
    tagged = _tagged(20_000, 100.0, seed=6)
    kinds = tagged.kind.tolist()
    delays = kinds.count(KIND_DELAY)
    assert delays + kinds.count(KIND_FAULT) == len(kinds)
    assert 0.45 <= delays / len(kinds) <= 0.55


def test_delay_magnitudes_stay_in_range():
    tagged = _tagged(2000, 100.0, seed=8, delay_min_us=1500.0, delay_max_us=2500.0)
    delays = tagged.delay_us[tagged.kind == KIND_DELAY]
    assert delays.size
    assert ((1500.0 <= delays) & (delays <= 2500.0)).all()


def test_assign_anomalies_validates_inputs():
    # the config refuses both before a schedule is drawn
    with pytest.raises(ValueError):
        _tagged(4, 120.0, seed=1)
    with pytest.raises(ValueError):
        _tagged(4, 10.0, seed=1, delay_min_us=500.0, delay_max_us=100.0)


def test_assign_anomalies_draws_one_entry_per_given_block():
    # the schedule covers the blocks handed in, not cfg.n_blocks
    cfg = _uniform(64, inject_pct=50.0, seed=3)
    tagged = assign_anomalies(generate_blocks(_uniform(40, seed=3)), cfg)
    assert _tags(tagged) == oracle_schedule.schedule(40, 50.0, 3, cfg.delay_min_us, cfg.delay_max_us)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2000),
    inject_pct=st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0)),
    delay_min_us=st.floats(1e-3, MAX_DELAY_US),
    width=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
def test_assign_anomalies_matches_the_scalar_draw_loop(n, inject_pct, delay_min_us, width, seed):
    # min + 1.0 * (MAX - min) can round above MAX, which the config refuses
    delay_max_us = min(delay_min_us + width * (MAX_DELAY_US - delay_min_us), MAX_DELAY_US)
    cfg = _uniform(n, inject_pct=inject_pct, seed=seed,
                   delay_min_us=delay_min_us, delay_max_us=delay_max_us)
    blocks = generate_blocks(cfg)
    tagged = assign_anomalies(blocks, cfg)
    want = oracle_schedule.schedule(n, inject_pct, seed, delay_min_us, delay_max_us)
    assert _tags(tagged) == want
    assert np.array_equal(tagged.index, blocks.index) and np.array_equal(tagged.data, blocks.data)


def _encrypted_plaintexts(data, kinds):
    """The post-fault plaintexts encrypt_blocks records for one 16-byte
    block per kind code, all with the same pre-fault data."""
    n = len(kinds)
    blocks = Blocks(np.arange(n, dtype=np.int64),
                    np.frombuffer(data * n, np.uint8).reshape(n, BLOCK_SIZE),
                    np.array(kinds, np.int8),
                    np.array([5.0 if k == KIND_DELAY else 0.0 for k in kinds]))
    cfg = RunConfig(mode=Mode.SIMULATED, jitter_us=0.0)
    records = encrypt_blocks(blocks, Key128(bytes(16)), cfg)
    assert blocks.data.tobytes() == data * n  # the fault goes into a copy
    return [rec.plaintext for rec in records]


def test_apply_fault_flips_first_byte_only():
    (faulted,) = _encrypted_plaintexts(bytes([0x41]) + bytes(15), [KIND_FAULT])
    assert faulted[0] == 0xBE
    assert faulted[1:] == bytes(15)


def test_apply_fault_ignores_untagged_blocks():
    data = bytes(range(16))
    assert _encrypted_plaintexts(data, [KIND_NONE, KIND_DELAY]) == [data, data]


@given(st.binary(min_size=16, max_size=16))
def test_apply_fault_is_an_involution(data):
    (faulted,) = _encrypted_plaintexts(data, [KIND_FAULT])
    assert _encrypted_plaintexts(faulted, [KIND_FAULT]) == [data]


def test_anomaly_tag_validation():
    # one shared tag per KIND_* code; a delay belongs to Blocks.delay_us, not the tag
    assert [tag.kind for tag in TAGS] == list(AnomalyKind)
    assert TAGS[KIND_NONE] == AnomalyTag()
    with pytest.raises(TypeError):
        AnomalyTag(AnomalyKind.DELAY, 5000.0)
    with pytest.raises(AttributeError):
        TAGS[KIND_NONE].kind = AnomalyKind.FAULT


def _columns(n=3):
    return {"index": np.arange(n, dtype=np.int64), "data": np.zeros((n, BLOCK_SIZE), np.uint8),
            "kind": np.array([KIND_NONE, KIND_DELAY, KIND_FAULT][:n], np.int8),
            "delay_us": np.array([0.0, 5.0, 0.0][:n])}


@pytest.mark.parametrize("field, value", [
    pytest.param("data", np.zeros((3, 5), np.uint8), id="short-data"),
    pytest.param("data", np.zeros((3, BLOCK_SIZE), np.int64), id="data-dtype"),
    pytest.param("data", [bytes(BLOCK_SIZE)] * 3, id="data-not-an-array"),
    # jitter is indexed by block number, where a negative index would wrap around
    pytest.param("index", np.array([-1, 0, 1], np.int64), id="negative-index"),
    pytest.param("index", np.array([0, 2, 1], np.int64), id="index-out-of-order"),
    pytest.param("index", np.array([0, 1, 1], np.int64), id="repeated-index"),
    pytest.param("index", np.arange(3, dtype=np.int32), id="index-dtype"),
    pytest.param("kind", np.array([KIND_NONE, KIND_DELAY, 3], np.int8), id="unknown-kind"),
    pytest.param("delay_us", np.array([0.0, 0.0, 0.0]), id="delay-block-without-delay"),
    pytest.param("delay_us", np.array([0.0, -5.0, 0.0]), id="negative-delay"),
    pytest.param("delay_us", np.array([0.0, np.nan, 0.0]), id="nan-delay"),
    pytest.param("delay_us", np.array([0.0, np.inf, 0.0]), id="infinite-delay"),
    pytest.param("delay_us", np.array([0.0, 2 * MAX_DELAY_US, 0.0]), id="delay-beyond-bound"),
    pytest.param("delay_us", np.array([1.0, 5.0, 0.0]), id="delay-on-clean-block"),
    pytest.param("delay_us", np.array([0.0, 5.0, 1.0]), id="delay-on-fault-block"),
    pytest.param("delay_us", np.array([0.0, 5.0]), id="short-delay-column"),
])
def test_blocks_reject_malformed_columns(field, value):
    Blocks(**_columns())  # the unchanged columns are valid
    with pytest.raises(ValueError):
        Blocks(**{**_columns(), field: value})


def test_blocks_reject_an_empty_run_and_keep_read_only_columns():
    with pytest.raises(ValueError, match="at least one block"):
        Blocks(**_columns(0))
    columns = _columns()
    blocks = Blocks(**columns)
    assert len(blocks) == 3
    with pytest.raises(ValueError):
        blocks.data[0, 0] = 1
    columns["data"][0, 0] = 1  # the caller's arrays stay writable


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_blocks", 0),
        ("inject_pct", -1.0),
        ("inject_pct", 101.0),
        ("workers", 0),
        ("workers", MAX_WORKERS + 1),  # a pool would start every one of them at once
        ("seed", -1),
        ("delay_min_us", 0.0),
        ("delay_max_us", 1.0),  # below the default minimum
        ("delay_max_us", 1e300),  # beyond MAX_DELAY_US: real mode could not sleep it
        ("work_amplification", 0),
        ("jitter_us", -1.0),
        # numpy's uniform raised OverflowError on these, past cli.main's handler
        ("jitter_us", math.nan),
        ("jitter_us", math.inf),
        # these gave NaN or infinite latencies
        ("base_time_us", math.nan),
        ("base_time_us", math.inf),
        ("base_time_us", -1.0),
        # a string mode took encrypt_blocks' real-mode path and timed the wall clock
        ("mode", "simulated"),
        ("input_dist", "ascii"),
        # a non-integer count raised numpy's or SeedSequence's TypeError, or ran
        ("n_blocks", 2.5),
        ("n_blocks", 8.0),
        ("n_blocks", True),
        ("seed", 1.5),
        ("seed", False),
        ("work_amplification", 1.5),
        ("workers", 1.5),
        ("workers", True),
        ("workers", "2"),
    ],
)
def test_run_config_validation_rejects_bad_fields(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(RunConfig(), **{field: value})
    with pytest.raises(ValueError):
        RunConfig(**{field: value})


def test_run_config_refuses_an_infinite_longest_latency():
    # each finite, but latencies of about 1.2e308 came out, with numpy's overflow warning
    with pytest.raises(ValueError, match="must be finite"):
        RunConfig(mode=Mode.SIMULATED, base_time_us=1e308, jitter_us=1e308)
    RunConfig(mode=Mode.SIMULATED, base_time_us=1e308, jitter_us=0.0)


def test_run_config_takes_numpy_integers():
    cfg = RunConfig(n_blocks=np.int64(8), seed=np.uint64(2**64 - 1), workers=np.int32(2))
    assert (cfg.n_blocks, cfg.workers) == (8, 2)


def test_run_config_defaults_are_valid():
    RunConfig()
    dataclasses.replace(RunConfig(), workers=MAX_WORKERS)
    RunConfig(mode=Mode.SIMULATED, input_dist=InputDistribution.UNIFORM, jitter_us=0.0,
              base_time_us=0.0)


def test_seeded_stream_ids_are_distinct():
    # every generator of the package is derived through workload._rng from one of these
    ids = {name: value for name, value in vars(workload).items() if name.startswith("_STREAM_")}
    assert sorted(ids) == ["_STREAM_BLOCKS", "_STREAM_SCHEDULE", "_STREAM_SPLIT", "_STREAM_TIMING",
                           "_STREAM_TREE"]
    assert len(set(ids.values())) == len(ids)
