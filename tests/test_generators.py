import math

import numpy as np
import pytest

from trialbet.simlab.generators import (
    binary_trial,
    continuous_trial,
    death_stream,
    multistate_trial,
    survival_trial,
)
from trialbet.multistate import CONTROL_DAILY, TREATMENT_DAILY


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
        assert trial.good.shape == trial.arms.shape
        assert trial.final_states.shape == (500,)
        assert set(np.unique(trial.arms)) <= {0, 1}
        assert set(np.unique(trial.final_states)) <= {0, 1, 2, 3}

    def test_good_rate_higher_under_treatment(self):
        rng = np.random.default_rng(9)
        trial = multistate_trial(rng, 4000, TREATMENT_DAILY, CONTROL_DAILY)
        rate_trt = trial.good[trial.arms == 1].mean()
        rate_ctrl = trial.good[trial.arms == 0].mean()
        assert rate_trt > rate_ctrl + 0.02
