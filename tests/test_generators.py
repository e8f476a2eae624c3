import math

import numpy as np
import pytest

from trialbet.simlab.generators import (
    MultistateTrial,
    binary_trial,
    continuous_trial,
    death_stream,
    multistate_trial,
    survival_trial,
)
from trialbet.simlab.scenario import multistate_matrices
from trialbet.multistate import CONTROL_DAILY, TREATMENT_DAILY

import oracles


def test_binary_trial_rates():
    rng = np.random.default_rng(0)
    t, y = binary_trial(rng, 40_000, 0.30, 0.40)
    assert abs(t.mean() - 0.5) < 0.01
    assert abs(y[t == 1].mean() - 0.30) < 0.01
    assert abs(y[t == 0].mean() - 0.40) < 0.01


def test_death_stream_coin():
    rng = np.random.default_rng(1)
    arms = death_stream(rng, 40_000, 0.375)
    assert abs(arms.mean() - 0.375) < 0.01


def test_continuous_trial_locations():
    rng = np.random.default_rng(2)
    t, y = continuous_trial(rng, 40_000, 0.4, 0.0, sd=2.0)
    assert abs(y[t == 1].mean() - 0.4) < 0.05
    assert abs(y[t == 0].mean()) < 0.05
    assert abs(y[t == 0].std() - 2.0) < 0.05


class TestSurvivalTrial:
    def test_uncensored_defaults(self):
        rng = np.random.default_rng(3)
        time, status, t, entry = survival_trial(rng, 500, hr=0.8)
        assert np.all(status == 1)
        assert np.all(entry == 0.0)
        assert np.all(time > 0)

    def test_hazard_ratio_scales_treated_times(self):
        rng = np.random.default_rng(4)
        time, _, t, _ = survival_trial(rng, 100_000, hr=0.5, shape=1.2, scale=10.0)
        # HR < 1: treated events are slower by factor (1/hr)^(1/shape)
        ratio = np.median(time[t == 1]) / np.median(time[t == 0])
        assert ratio == pytest.approx((1 / 0.5) ** (1 / 1.2), rel=0.05)

    def test_exponential_special_case(self):
        rng = np.random.default_rng(5)
        time, _, t, _ = survival_trial(rng, 100_000, hr=1.0, shape=1.0, scale=10.0)
        assert np.median(time) == pytest.approx(10.0 * math.log(2), rel=0.03)
        assert time.mean() == pytest.approx(10.0, rel=0.03)

    def test_censoring(self):
        rng = np.random.default_rng(6)
        time, status, _, _ = survival_trial(rng, 5000, censor_upper=5.0)
        assert 0 < status.mean() < 1
        assert np.all(time[status == 0] <= 5.0)

    def test_staggered_entry(self):
        rng = np.random.default_rng(7)
        time, _, _, entry = survival_trial(rng, 5000, recruit_period=12.0)
        assert np.all((entry >= 0) & (entry <= 12.0))
        assert np.all(time - entry > 0)  # calendar time minus entry = study time


class TestMultistateTrial:
    def test_shapes_and_classification(self):
        rng = np.random.default_rng(8)
        trial = multistate_trial(rng, 500, TREATMENT_DAILY, CONTROL_DAILY)
        good, arms = trial  # the pair the batch kernel unpacks
        assert isinstance(trial, MultistateTrial) and good is trial.good and arms is trial.arms
        assert trial.good.shape == trial.arms.shape
        assert set(np.unique(trial.arms)) <= {0, 1}

    def test_good_rate_higher_under_treatment(self):
        rng = np.random.default_rng(9)
        trial = multistate_trial(rng, 4000, TREATMENT_DAILY, CONTROL_DAILY)
        rate_trt = trial.good[trial.arms == 1].mean()
        rate_ctrl = trial.good[trial.arms == 0].mean()
        assert rate_trt > rate_ctrl + 0.02


@pytest.mark.parametrize("ints,floats", [
    ((3, 1), (3.0, 1.0)),
    ((10**30, 3), (1e30, 3.0)),  # past int64: numpy would make no int64 array of them
    ((2**63 + 1, -(2**70)), (float(2**63 + 1), -float(2**70))),
])
def test_int_means_draw_as_their_floats(ints, floats):
    """Means given as ints draw the trial their floats draw, one stream or a block."""
    for rows in (1, 3):
        drawn = continuous_trial(_streams(rows), 40, *ints)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in
                   zip(drawn, continuous_trial(_streams(rows), 40, *floats)))


# Each generator with non-default options, and its one-stream reference.
CALLS = {
    "binary": (binary_trial, oracles.binary_draw, (37, 0.3, 0.45, 0.6), {}),
    "deaths": (death_stream, oracles.death_draw, (50, 0.4), {}),
    "continuous": (continuous_trial, oracles.continuous_draw, (40, 0.3, -0.2, 2.5, 0.4), {}),
    "continuous-integer-means": (continuous_trial, oracles.continuous_draw, (40, 3, 1, 2), {}),
    "survival": (survival_trial, oracles.survival_draw, (45, 0.7, 1.3, 8.0), {}),
    "survival-censored-staggered": (survival_trial, oracles.survival_draw, (45, 0.7, 1.3, 8.0),
                                    {"censor_upper": 12.0, "recruit_period": 5.0}),
    "survival-staggered": (survival_trial, oracles.survival_draw, (45, 1.4, 1.0),
                           {"recruit_period": 3}),
    "multistate": (multistate_trial, oracles.multistate_draw, (60, *multistate_matrices("null", {
        "trt": [[0.8, 0.1, 0.05, 0.05], [0.1, 0.8, 0.05, 0.05], [0, 0, 1, 0], [0, 0, 0, 1]],
        "ctrl": [[0.85, 0.05, 0.05, 0.05], [0.2, 0.7, 0.05, 0.05], [0, 0, 1, 0], [0, 0, 0, 1]]})),
                   {"start": "Ward", "horizon": 9}),
}


def _streams(rows: int) -> list:
    return [np.random.default_rng(np.random.SeedSequence(77, spawn_key=(r,)))
            for r in range(rows)]


def _columns(drawn) -> tuple:
    """A drawn trial, or a block, as a tuple of its arrays."""
    return drawn if isinstance(drawn, tuple) else (drawn,)


def _assert_same(drawn: tuple, expect: tuple) -> None:
    assert len(drawn) == len(expect)
    for got, want in zip(drawn, expect):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("generate,reference,args,kwargs", CALLS.values(), ids=CALLS.keys())
def test_one_stream_draws_as_numpy_draws_it(generate, reference, args, kwargs):
    """A lone-stream call is the trial numpy's own calls draw from that stream,
    in the order it has always been read, and leaves the stream where they do."""
    (rng,), (expect_rng,) = _streams(1), _streams(1)
    _assert_same(_columns(generate(rng, *args, **kwargs)),
                 reference(expect_rng, *args, **kwargs))
    assert rng.bit_generator.state == expect_rng.bit_generator.state


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("generate,reference,args,kwargs", CALLS.values(), ids=CALLS.keys())
def test_a_block_is_its_rows_drawn_alone(generate, reference, args, kwargs, rows):
    """Row r of a block call is bit for bit, dtype included, the call with
    stream r alone, and every stream is left where that call leaves it."""
    block_rngs, lone_rngs = _streams(rows), _streams(rows)
    block = generate(block_rngs, *args, **kwargs)
    if isinstance(block, list):  # multistate: one trial per stream
        block = [_columns(trial) for trial in block]
    else:
        assert all(column.shape[0] == rows for column in _columns(block))
        block = list(zip(*_columns(block)))
    assert len(block) == rows
    for row, rng, lone_rng in zip(block, block_rngs, lone_rngs):
        _assert_same(row, _columns(generate(lone_rng, *args, **kwargs)))
        assert rng.bit_generator.state == lone_rng.bit_generator.state
