import numpy as np
import pytest

from trialbet.core import RampSchedule
from trialbet.simlab import batch
from trialbet.simlab.generators import survival_trial
from trialbet.survival import (
    SurvivalRecord,
    SurvivalState,
    order_records,
    score_increment,
)

from oracles import mean_final_wealth_survival


def make_state(risk_trt=100, risk_ctrl=100, **kw):
    return SurvivalState(risk_trt=risk_trt, risk_ctrl=risk_ctrl, **kw)


class TestRiskProportion:
    def test_values(self):
        assert make_state(100, 100).risk_proportion() == 0.5
        assert make_state(30, 70).risk_proportion() == pytest.approx(0.3, abs=0)
        assert make_state(0, 0).risk_proportion() == 0.5


class TestScoreIncrement:
    def test_values(self):
        assert score_increment(1, 0.5) == 0.5
        assert score_increment(0, 0.3) == pytest.approx(-0.3, abs=0)
        assert score_increment(1, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            score_increment(2, 0.5)


class TestBet:
    def test_follows_score_sign(self):
        st = make_state()
        st.records_seen = 90  # past burn-in and ramp
        st.cum_z = 3.2
        assert st.bet() == pytest.approx(0.25, abs=0)
        st.cum_z = -0.1
        assert st.bet() == pytest.approx(-0.25, abs=0)

    def test_burn_in_and_zero_score(self):
        st = make_state()
        st.cum_z = 5.0
        assert st.bet(30) == 0.0
        st.records_seen = 90
        st.cum_z = 0.0
        assert st.bet() == 0.0

    def test_ramp_scales_magnitude(self):
        st = make_state()
        st.cum_z = 1.0
        assert st.bet(55) == pytest.approx((55 - 30) / 50 * 0.25)


class TestStep:
    def test_event_multiplier(self):
        st = make_state(50, 50, record_steps=True)
        st.records_seen, st.cum_z = 90, 4.0
        st.last_time = 0.0
        st.step(SurvivalRecord(1.0, 1, 0))  # b=+0.25, U=-0.5
        assert st.ledger.steps[0].multiplier == pytest.approx(0.875, abs=1e-12)

    def test_censored_record_only_shrinks_risk(self):
        st = make_state(10, 10, record_steps=True)
        st.step(SurvivalRecord(1.0, 0, 1))
        assert st.ledger.steps == []
        assert (st.risk_trt, st.risk_ctrl) == (9, 10)
        assert st.ledger.wealth == 1.0

    def test_score_updates_after_betting(self):
        st = make_state(10, 10, sched=RampSchedule(0, 1), record_steps=True)
        st.cum_z = 0.0
        st.step(SurvivalRecord(0.5, 1, 1))  # sign(0)=0 -> bet 0
        assert st.ledger.steps[0].multiplier == 1.0
        assert st.cum_z == pytest.approx(0.5)

    def test_out_of_order_rejected(self):
        st = make_state()
        st.step(SurvivalRecord(5.0, 1, 0))
        with pytest.raises(ValueError, match="not sorted"):
            st.step(SurvivalRecord(4.0, 1, 1))

    def test_risk_set_decrements_by_one_per_record(self):
        st = make_state(5, 5)
        for k, arm in enumerate([0, 1, 1, 0, 1, 0, 0, 1, 0, 1]):  # 5 per arm
            total_before = st.risk_trt + st.risk_ctrl
            st.step(SurvivalRecord(float(k), k % 2, arm))
            assert st.risk_trt + st.risk_ctrl == total_before - 1

    @pytest.mark.parametrize("arm,name", [(1, "treated"), (0, "control")])
    def test_record_for_an_exhausted_arm_is_refused(self, arm, name):
        st = make_state(1, 1)
        st.step(SurvivalRecord(1.0, 1, arm))
        with pytest.raises(ValueError, match=f"^{name} risk set is exhausted"):
            st.step(SurvivalRecord(2.0, 0, arm))
        assert st.records_seen == 1 and (st.risk_trt, st.risk_ctrl) == (1 - arm, arm)
        st.step(SurvivalRecord(2.0, 1, 1 - arm))  # the other arm is still at risk
        assert (st.risk_trt, st.risk_ctrl) == (0, 0)

    def test_multipliers_bounded_by_cap(self):
        rng = np.random.default_rng(4)
        time, status, t, _ = survival_trial(rng, 200, hr=0.6)
        st = make_state(int(t.sum()), int((1 - t).sum()), record_steps=True)
        for rec in order_records(
                [SurvivalRecord(float(a), int(b), int(c)) for a, b, c in zip(time, status, t)]):
            st.step(rec)
        assert st.ledger.steps
        for step in st.ledger.steps:
            assert 0.75 - 1e-12 <= step.multiplier <= 1.25 + 1e-12


class TestOrderRecords:
    def test_sorted_input_is_identity(self):
        recs = [SurvivalRecord(1.0, 1, 0), SurvivalRecord(2.0, 0, 1)]
        assert order_records(recs) == recs

    def test_stable_ties(self):
        a, b = SurvivalRecord(3.0, 1, 0), SurvivalRecord(3.0, 0, 1)
        assert order_records([a, b]) == [a, b]
        assert order_records([b, a]) == [b, a]

    def test_staggered_entry_uses_time_on_study(self):
        calendar = [SurvivalRecord(10.0, 1, 0), SurvivalRecord(9.0, 1, 1)]
        entries = [8.0, 2.0]  # study times 2.0 and 7.0
        ordered = order_records(calendar, entries)
        assert [r.time for r in ordered] == [2.0, 7.0]
        assert [r.arm for r in ordered] == [0, 1]

    def test_negative_study_time_rejected(self):
        with pytest.raises(ValueError, match="negative time on study"):
            order_records([SurvivalRecord(1.0, 1, 0)], [2.0])

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            order_records([SurvivalRecord(1.0, 1, 0)], [1.0, 2.0])


def test_staggered_analysis_equals_simultaneous_on_same_trial():
    """Adding entry times and analyzing on time-on-study reproduces the
    simultaneous analysis exactly (common random numbers)."""
    rng = np.random.default_rng(8)
    time, status, t, _ = survival_trial(rng, 150, hr=0.8)
    entries = rng.uniform(0.0, 12.0, 150)
    base = [SurvivalRecord(float(a), int(b), int(c)) for a, b, c in zip(time, status, t)]
    calendar = [SurvivalRecord(float(a + e), int(b), int(c))
                for (a, b, c), e in zip(zip(time, status, t), entries)]

    def run(records, entry_times=None):
        st = make_state(int(t.sum()), int((1 - t).sum()))
        for rec in order_records(records, entry_times):
            st.step(rec)
        return st.ledger.log_wealth

    assert run(base) == pytest.approx(run(calendar, entries.tolist()), abs=1e-12)


def test_conditional_fairness_identity():
    for p in np.linspace(0.05, 0.95, 19):
        for b in np.linspace(-0.9, 0.9, 13):
            expect = p * (1 + b * (1 - p)) + (1 - p) * (1 + b * (0 - p))
            assert expect == pytest.approx(1.0, abs=1e-12)


def test_streaming_matches_batch_replay():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        time, status, t, _ = survival_trial(rng, 250, hr=0.8,
                                            censor_upper=20.0 if seed % 2 else None)
        recs = order_records(
            [SurvivalRecord(float(a), int(b), int(c)) for a, b, c in zip(time, status, t)])
        st = make_state(int(t.sum()), int((1 - t).sum()))
        for rec in recs:
            st.step(rec)
        logw = batch.survival_log_wealth(time, status, t)
        assert abs(st.ledger.log_wealth - logw[-1]) < 1e-12


def test_enumeration_fairness_oracle():
    times = [float(k) for k in range(1, 11)]

    def fresh():
        return make_state(5, 5, sched=RampSchedule(1, 2))

    assert mean_final_wealth_survival(fresh, times, 10) == pytest.approx(1.0, abs=1e-9)


def test_record_validation():
    with pytest.raises(ValueError):
        SurvivalRecord(-1.0, 1, 0)
    with pytest.raises(ValueError):
        SurvivalRecord(1.0, 2, 0)
    with pytest.raises(ValueError):
        SurvivalRecord(1.0, 1, 3)
