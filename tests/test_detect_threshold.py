import math
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeslab.cipher import Key128, run_pipeline
from aeslab.detect_threshold import ThresholdModel, classify_threshold, fit_threshold
from aeslab.workload import KIND_DELAY, Mode, RunConfig


def test_fit_matches_hand_computed_example():
    model = fit_threshold([1.0] * 9 + [9.0])
    assert model.n == 10
    assert model.mean_us == pytest.approx(1.8, rel=1e-12)
    assert model.threshold_us == pytest.approx(1.8 + 3.0 * 8.0 / 10.0, rel=1e-12)


def test_boundary_sample_is_not_flagged():
    # threshold lands exactly on the largest sample: mean 4 + 3*8/4 = 10
    model = fit_threshold([2.0, 2.0, 2.0, 10.0])
    assert model.threshold_us == pytest.approx(10.0, rel=1e-12)

    flags = classify_threshold(np.array([2.0, 10.0]), model)
    assert flags.tolist() == [False, False]
    above = math.nextafter(model.threshold_us, math.inf)
    assert classify_threshold(np.array([above]), model).tolist() == [True]


def test_constant_population_flags_nothing():
    model = fit_threshold([55.5] * 32)
    assert model.threshold_us == pytest.approx(55.5, rel=1e-12)

    assert not any(classify_threshold(np.full(32, 55.5), model))


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        fit_threshold([])


def test_model_summary_fields():
    model = fit_threshold([3.0, 1.0, 2.0])
    assert isinstance(model, ThresholdModel)
    assert (model.min_us, model.max_us, model.n) == (1.0, 3.0, 3)


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=400))
def test_fit_matches_independent_formula(times):
    model = fit_threshold(times)
    expected = fmean(times) + 3.0 * (max(times) - min(times)) / len(times)
    assert model.threshold_us == pytest.approx(expected, rel=1e-12)
    assert model.threshold_us >= model.mean_us


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=200))
def test_classification_agrees_with_direct_comparison(times):
    model = fit_threshold(times)

    flags = classify_threshold(np.array(times), model)
    assert flags.tolist() == [t > model.threshold_us for t in times]


def test_faults_are_invisible_to_the_threshold():
    # faults perturb bytes, never latency, so a zero-jitter run is flat
    cfg = RunConfig(
        n_blocks=128, inject_pct=50.0, seed=31, mode=Mode.SIMULATED, jitter_us=0.0
    )
    run = run_pipeline(cfg, Key128(bytes(16)))
    fault_only = run.time_us[run.blocks.kind != KIND_DELAY]
    model = fit_threshold(fault_only)
    assert sum(classify_threshold(fault_only, model)) == 0


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=400))
def test_fit_on_a_column_is_exact(times):
    # the column is summed as Python floats by math.fsum: a pairwise sum could move the last bit
    model = fit_threshold(np.array(times))
    mean = fmean(times)
    assert model.mean_us == mean
    assert model.threshold_us == mean + 3.0 * (max(times) - min(times)) / len(times)
