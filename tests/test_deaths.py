import math

import numpy as np
import pytest

from trialbet.core import RampSchedule
from trialbet.deaths import (
    DeathsState,
    death_coin,
    expected_deaths,
)
from trialbet.simlab import batch
from trialbet.simlab.engine import rep_rng
from trialbet.simlab.generators import death_stream

from oracles import mean_final_wealth


class TestDeathCoin:
    def test_reference_values(self):
        assert death_coin(0.25, 0.20) == pytest.approx(0.20 / 0.45, abs=0)
        assert round(death_coin(0.25, 0.20), 3) == 0.444
        assert round(death_coin(0.10, 0.05), 3) == 0.333

    def test_symmetry(self):
        for x in (0.05, 0.2, 0.9):
            assert death_coin(x, x) == 0.5

    def test_no_deaths_possible(self):
        with pytest.raises(ValueError, match="no deaths possible"):
            death_coin(0.0, 0.0)
        with pytest.raises(ValueError):
            death_coin(1.2, 0.1)


class TestExpectedDeaths:
    def test_table_values(self):
        assert expected_deaths(2188, 0.25, 0.20) == 493
        assert expected_deaths(1372, 0.15, 0.10) == 172
        assert expected_deaths(0, 0.25, 0.20) == 0


class TestSignalConcentration:
    """How far an absolute risk reduction ``arr`` tilts the death coin from 0.5:
    at low baseline mortality the tilt exceeds the reduction itself."""

    def test_table_rows(self):
        coins = [death_coin(b, b - 0.05) for b in [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]]
        assert [round(c, 3) for c in coins] == [0.333, 0.400, 0.429, 0.444, 0.455, 0.462, 0.467]
        tilts = [abs(c - 0.5) for c in coins]
        assert round(tilts[1] * 100, 1) == 10.0
        assert round(tilts[1] / 0.05, 2) == 2.00
        assert round(tilts[6] * 100, 1) == 3.3
        assert round(tilts[6] / 0.05, 2) == 0.67

    def test_zero_arr(self):
        assert death_coin(0.2, 0.2 - 0.0) == 0.5

    def test_negative_treatment_rate(self):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            death_coin(0.04, 0.04 - 0.05)


class TestWager:
    def test_worked_example(self):
        st = DeathsState()
        st.d_trt, st.d_ctrl = 33, 47
        assert st.p_hat() == 0.4125
        assert st.wager(81) == 0.4125

    def test_burn_in(self):
        st = DeathsState()
        st.d_trt, st.d_ctrl = 3, 7
        assert st.wager(30) == 0.5
        assert st.wager(31) != 0.5

    def test_balanced_counts(self):
        st = DeathsState()
        st.d_trt = st.d_ctrl = 100
        assert st.wager(201) == 0.5


class TestStep:
    def test_worked_example_multipliers(self):
        st = DeathsState(record_steps=True)
        st.d_trt, st.d_ctrl = 33, 47
        st.step(0)
        assert st.ledger.steps[0].multiplier == pytest.approx(1.175, abs=1e-12)
        assert st.d_ctrl == 48
        st2 = DeathsState(record_steps=True)
        st2.d_trt, st2.d_ctrl = 33, 47
        st2.step(1)
        assert st2.ledger.steps[0].multiplier == pytest.approx(0.825, abs=1e-12)

    def test_every_death_is_a_ledger_step(self):
        st = DeathsState(record_steps=True)
        for arm in [1, 0, 0, 1, 1]:
            st.step(arm)
        assert [s.index for s in st.ledger.steps] == [1, 2, 3, 4, 5]
        assert st.ledger.n_steps == 5


def test_bidirectionality_label_flip():
    """Flipping every arm label leaves the wealth trajectory unchanged."""
    rng = np.random.default_rng(3)
    arms = (rng.random(400) < 0.38).astype(int)
    a = DeathsState(record_steps=True)
    b = DeathsState(record_steps=True)
    for arm in arms.tolist():
        a.step(arm)
        b.step(1 - arm)
    assert len(a.ledger.steps) == len(b.ledger.steps) == len(arms)
    for sa, sb in zip(a.ledger.steps, b.ledger.steps):
        assert abs(math.log(sa.multiplier) - math.log(sb.multiplier)) < 1e-12
    assert abs(a.ledger.log_wealth - b.ledger.log_wealth) < 1e-9


def test_final_relative_risk_guards():
    st = DeathsState()
    st.d_trt, st.d_ctrl = 33, 47
    assert st.final_rr() == pytest.approx(0.4125 / 0.5875)
    empty_trt = DeathsState()
    empty_trt.d_ctrl = 10
    assert empty_trt.final_rr() == 0.0
    all_trt = DeathsState()
    all_trt.d_trt = 10
    assert all_trt.final_rr() == math.inf


def test_streaming_matches_batch_replay():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        arms = death_stream(rng, 250, 0.375)
        st = DeathsState()
        for arm in arms.tolist():
            st.step(int(arm))
        logw = batch.deaths_log_wealth(arms)
        assert abs(st.ledger.log_wealth - logw[-1]) < 1e-12


def test_enumeration_fairness_oracle():
    def make_state():
        return DeathsState(sched=RampSchedule(2, 3))

    def apply_arm(state, j, arm):
        state.step(arm)

    assert mean_final_wealth(make_state, apply_arm, 12) == pytest.approx(1.0, abs=1e-9)


def test_null_rejection_rate_bounded():
    hits = 0
    n_sims = 500
    for rep in range(n_sims):
        rng = rep_rng(77, rep)
        arms = death_stream(rng, 500, 0.5)
        hits += batch.first_crossing(batch.deaths_log_wealth(arms), 0.05) is not None
    assert hits / n_sims <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / n_sims)
