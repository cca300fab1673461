import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeslab.workload import (
    ASCII_HIGH,
    ASCII_LOW,
    BLOCK_SIZE,
    MAX_DELAY_US,
    MAX_WORKERS,
    AnomalyKind,
    AnomalyTag,
    InputDistribution,
    PlainBlock,
    RunConfig,
    apply_fault,
    assign_anomalies,
    generate_blocks,
)

import oracle_schedule


def test_generate_blocks_count_and_indices():
    blocks = generate_blocks(3, InputDistribution.UNIFORM, seed=11)
    assert [b.index for b in blocks] == [0, 1, 2]
    assert all(len(b.data) == BLOCK_SIZE for b in blocks)
    assert all(b.tag.kind is AnomalyKind.NONE for b in blocks)


def test_generate_blocks_deterministic():
    a = generate_blocks(64, InputDistribution.UNIFORM, seed=5)
    b = generate_blocks(64, InputDistribution.UNIFORM, seed=5)
    assert [x.data for x in a] == [y.data for y in b]


def test_generate_blocks_seed_changes_bytes():
    a = generate_blocks(16, InputDistribution.UNIFORM, seed=5)
    b = generate_blocks(16, InputDistribution.UNIFORM, seed=6)
    assert [x.data for x in a] != [y.data for y in b]


def test_ascii_distribution_stays_printable():
    blocks = generate_blocks(4096, InputDistribution.ASCII, seed=3)
    for block in blocks:
        assert all(ASCII_LOW <= byte <= ASCII_HIGH for byte in block.data)


def test_uniform_distribution_leaves_printable_range():
    blocks = generate_blocks(2048, InputDistribution.UNIFORM, seed=3)
    flat = b"".join(b.data for b in blocks)
    assert min(flat) < ASCII_LOW
    assert max(flat) > ASCII_HIGH
    assert len(set(flat)) == 256  # 32 KiB of uniform bytes covers all values


def test_generate_blocks_rejects_empty_workload():
    with pytest.raises(ValueError):
        generate_blocks(0, InputDistribution.UNIFORM, seed=1)


def _tags(blocks):
    return [(b.tag.kind, b.tag.delay_us) for b in blocks]


def test_assign_anomalies_deterministic():
    blocks = generate_blocks(256, InputDistribution.UNIFORM, seed=9)
    first = assign_anomalies(blocks, 35.0, seed=9)
    second = assign_anomalies(blocks, 35.0, seed=9)
    assert _tags(first) == _tags(second)
    assert [b.data for b in first] == [b.data for b in blocks]


def test_assign_anomalies_extremes():
    blocks = generate_blocks(128, InputDistribution.UNIFORM, seed=2)
    none = assign_anomalies(blocks, 0.0, seed=2)
    assert not any(b.tag.is_anomaly for b in none)
    full = assign_anomalies(blocks, 100.0, seed=2)
    assert all(b.tag.is_anomaly for b in full)


def test_assign_anomalies_rate_tracks_percentage():
    n = 10_000
    blocks = generate_blocks(n, InputDistribution.UNIFORM, seed=4)
    tagged = assign_anomalies(blocks, 20.0, seed=4)
    hits = sum(b.tag.is_anomaly for b in tagged)
    sigma = (n * 0.2 * 0.8) ** 0.5
    assert abs(hits - 0.2 * n) <= 3 * sigma


def test_anomaly_kinds_near_fair_coin():
    blocks = generate_blocks(20_000, InputDistribution.UNIFORM, seed=6)
    tagged = assign_anomalies(blocks, 100.0, seed=6)
    kinds = [b.tag.kind for b in tagged]
    delays = kinds.count(AnomalyKind.DELAY)
    assert delays + kinds.count(AnomalyKind.FAULT) == len(kinds)
    assert 0.45 <= delays / len(kinds) <= 0.55


def test_delay_magnitudes_stay_in_range():
    blocks = generate_blocks(2000, InputDistribution.UNIFORM, seed=8)
    tagged = assign_anomalies(blocks, 100.0, seed=8, delay_min_us=1500.0, delay_max_us=2500.0)
    delays = [b.tag.delay_us for b in tagged if b.tag.kind is AnomalyKind.DELAY]
    assert delays
    assert all(1500.0 <= d <= 2500.0 for d in delays)


def test_assign_anomalies_validates_inputs():
    blocks = generate_blocks(4, InputDistribution.UNIFORM, seed=1)
    with pytest.raises(ValueError):
        assign_anomalies(blocks, 120.0, seed=1)
    with pytest.raises(ValueError):
        assign_anomalies(blocks, 10.0, seed=1, delay_min_us=500.0, delay_max_us=100.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2000),
    inject_pct=st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0)),
    delay_min_us=st.floats(1e-3, MAX_DELAY_US),
    width=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
def test_assign_anomalies_matches_the_scalar_draw_loop(n, inject_pct, delay_min_us, width, seed):
    delay_max_us = delay_min_us + width * (MAX_DELAY_US - delay_min_us)
    blocks = [PlainBlock(i, bytes(16), AnomalyTag()) for i in range(n)]
    tagged = assign_anomalies(blocks, inject_pct, seed, delay_min_us, delay_max_us)
    want = oracle_schedule.schedule(n, inject_pct, seed, delay_min_us, delay_max_us)
    assert [(kind.value, delay) for kind, delay in _tags(tagged)] == want
    assert [(b.index, b.data) for b in tagged] == [(b.index, b.data) for b in blocks]


def test_apply_fault_flips_first_byte_only():
    block = PlainBlock(0, bytes([0x41]) + bytes(15), AnomalyTag(AnomalyKind.FAULT))
    faulted = apply_fault(block)
    assert faulted.data[0] == 0xBE
    assert faulted.data[1:] == block.data[1:]


def test_apply_fault_ignores_untagged_blocks():
    block = PlainBlock(0, bytes(range(16)), AnomalyTag())
    assert apply_fault(block) is block


@given(st.binary(min_size=16, max_size=16))
def test_apply_fault_is_an_involution(data):
    block = PlainBlock(0, data, AnomalyTag(AnomalyKind.FAULT))
    assert apply_fault(apply_fault(block)).data == data


def test_anomaly_tag_validation():
    with pytest.raises(ValueError):
        AnomalyTag(AnomalyKind.DELAY)
    with pytest.raises(ValueError):
        AnomalyTag(AnomalyKind.DELAY, -5.0)
    with pytest.raises(ValueError):
        AnomalyTag(AnomalyKind.NONE, 10.0)
    with pytest.raises(ValueError):
        AnomalyTag(AnomalyKind.FAULT, 10.0)


def test_plain_block_rejects_wrong_size():
    with pytest.raises(ValueError):
        PlainBlock(0, bytes(5), AnomalyTag())
    # jitter is indexed by block number, where a negative index would wrap around
    with pytest.raises(ValueError, match="non-negative"):
        PlainBlock(-1, bytes(16), AnomalyTag())


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
    ],
)
def test_run_config_validation_rejects_bad_fields(field, value):
    cfg = dataclasses.replace(RunConfig(), **{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_run_config_defaults_are_valid():
    RunConfig().validate()
    dataclasses.replace(RunConfig(), workers=MAX_WORKERS).validate()
