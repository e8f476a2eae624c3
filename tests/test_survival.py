import json

import numpy as np
import pytest

from trialbet.checkpoint import decode_state, encode_state
from trialbet.cli import parse_event
from trialbet.core import RampSchedule
from trialbet.simlab import batch
from trialbet.simlab.generators import survival_trial
from trialbet.survival import SurvivalRecord, SurvivalState
from trialbet.variants import MONITORS

from oracles import mean_final_wealth_survival, survival_records


def make_state(risk_trt=100, risk_ctrl=100, **kw):
    return SurvivalState(risk_trt=risk_trt, risk_ctrl=risk_ctrl, **kw)


class TestRiskProportion:
    def test_values(self):
        assert make_state(100, 100).risk_proportion() == 0.5
        assert make_state(30, 70).risk_proportion() == pytest.approx(0.3, abs=0)
        assert make_state(0, 0).risk_proportion() == 0.5


def score_after_event(risk_trt, risk_ctrl, arm):
    """The cumulative score, from 4.0, and the payout of a bet of +0.25 after
    one event: its increment is the treated indicator minus the treated share
    at risk."""
    st = make_state(risk_trt, risk_ctrl, record_steps=True)
    st.records_seen, st.cum_z, st.last_time = 90, 4.0, 0.0
    st.step(SurvivalRecord(1.0, 1, arm))
    return st.cum_z, st.ledger.steps[0].multiplier


class TestScoreIncrement:
    def test_values(self):
        assert score_after_event(50, 50, 1) == (4.0 + 0.5, 1.0 + 0.25 * 0.5)
        assert score_after_event(30, 70, 0) == (4.0 + -0.3, 1.0 + 0.25 * -0.3)
        assert score_after_event(10, 0, 1) == (4.0 + 0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="arm must be 0 or 1"):
            make_state().step(SurvivalRecord(1.0, 1, 2))


class TestBet:
    def test_follows_score_sign(self):
        st = make_state()
        st.records_seen = 90  # past burn-in and ramp
        st.cum_z = 3.2
        assert st.bet(91) == pytest.approx(0.25, abs=0)
        st.cum_z = -0.1
        assert st.bet(91) == pytest.approx(-0.25, abs=0)

    def test_burn_in_and_zero_score(self):
        st = make_state()
        st.cum_z = 5.0
        assert st.bet(30) == 0.0
        st.records_seen = 90
        st.cum_z = 0.0
        assert st.bet(91) == 0.0

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
        for rec in survival_records(time, status, t):
            st.step(rec)
        assert st.ledger.steps
        for step in st.ledger.steps:
            assert 0.75 - 1e-12 <= step.multiplier <= 1.25 + 1e-12


def parse(**event):
    """The record the monitor steps for one NDJSON survival event."""
    (record,) = parse_event(MONITORS["survival"], json.dumps(event), 1)
    return record


class TestOrderRecords:
    """Records go to the monitor by time on study, ``time - entry_time`` when
    an event carries its entry time, and stable on ties."""

    def test_sorted_input_is_identity(self):
        recs = [SurvivalRecord(1.0, 1, 0), SurvivalRecord(2.0, 0, 1)]
        assert survival_records([1.0, 2.0], [1, 0], [0, 1]) == recs
        st = make_state()
        for rec in recs:
            st.step(rec)
        assert (st.records_seen, st.last_time) == (2, 2.0)

    def test_stable_ties(self):
        assert survival_records([3.0, 3.0], [1, 0], [0, 1]) == [
            SurvivalRecord(3.0, 1, 0), SurvivalRecord(3.0, 0, 1)]
        assert survival_records([3.0, 3.0], [0, 1], [1, 0]) == [
            SurvivalRecord(3.0, 0, 1), SurvivalRecord(3.0, 1, 0)]
        st = make_state()
        for rec in (SurvivalRecord(3.0, 1, 0), SurvivalRecord(3.0, 0, 1)):
            st.step(rec)  # a tie is in order either way
        assert st.records_seen == 2

    def test_staggered_entry_uses_time_on_study(self):
        calendar = [parse(time=10.0, status=1, arm=0, entry_time=8.0),
                    parse(time=9.0, status=1, arm=1, entry_time=2.0)]
        assert calendar == [(2.0, 1, 0), (7.0, 1, 1)]
        assert all(type(record) is tuple for record in calendar)  # no SurvivalRecord is built

    def test_negative_study_time_rejected(self):
        with pytest.raises(ValueError, match="negative time on study"):
            parse(time=1.0, status=1, arm=0, entry_time=2.0)

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError, match="'entry_time' must be a finite number"):
            parse(time=1.0, status=1, arm=0, entry_time=[1.0, 2.0])


def test_staggered_analysis_equals_simultaneous_on_same_trial():
    """Calendar-time events with their entry times, parsed as the monitor parses
    them and analyzed on time on study, reproduce the simultaneous analysis
    (common random numbers)."""
    rng = np.random.default_rng(8)
    time, status, t, _ = survival_trial(rng, 150, hr=0.8)
    entries = rng.uniform(0.0, 12.0, 150)
    calendar = [parse(time=float(a + e), status=int(b), arm=int(c), entry_time=float(e))
                for a, b, c, e in zip(time, status, t, entries)]

    def run(records):
        st = make_state(int(t.sum()), int((1 - t).sum()))
        for rec in sorted(records, key=lambda r: r[0]):  # a parse gives a plain tuple
            st.step(rec)
        return st.ledger.log_wealth

    assert run(survival_records(time, status, t)) == pytest.approx(run(calendar), abs=1e-12)


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
        st = make_state(int(t.sum()), int((1 - t).sum()))
        for rec in survival_records(time, status, t):
            st.step(rec)
        logw = batch.survival_log_wealth(time, status, t)
        assert abs(st.ledger.log_wealth - logw[-1]) < 1e-12


def test_enumeration_fairness_oracle():
    times = [float(k) for k in range(1, 11)]

    def fresh():
        return make_state(5, 5, sched=RampSchedule(1, 2))

    assert mean_final_wealth_survival(fresh, times, 10) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("time", [10**400, -10**400, float("inf"), float("nan"), True,
                                  np.bool_(True)],
                         ids=["10**400", "-10**400", "inf", "nan", "true", "np.True_"])
def test_a_time_past_the_float_range_is_refused(time):
    """An int too large for a float is refused as a non-finite time is, and
    so is a bool, Python's or numpy's."""
    with pytest.raises(ValueError, match="^time on study must be finite and >= 0"):
        make_state().step(SurvivalRecord(time, 1, 1))


def test_a_time_too_long_for_decimal_is_refused_by_its_size():
    with pytest.raises(ValueError, match="^time on study must be finite and >= 0, "
                                         "got an int of 16610 bits$"):
        make_state().step(SurvivalRecord(10**5000, 1, 1))


def test_int_times_are_their_floats():
    """An int time is stored as its float: the state bets as on float times,
    bit for bit, and its checkpoint encodes and decodes."""
    records = [(k // 2, k % 3 != 0, k % 2) for k in range(60)]
    by_int = make_state(40, 40, sched=RampSchedule(3, 10), record_steps=True)
    by_float = make_state(40, 40, sched=RampSchedule(3, 10), record_steps=True)
    for time, status, arm in records:
        by_int.step(SurvivalRecord(time, int(status), arm))
        by_float.step(SurvivalRecord(float(time), int(status), arm))
    assert SurvivalRecord(2, 1, 1) == SurvivalRecord(2.0, 1, 1)
    assert type(by_int.last_time) is float
    assert by_int.ledger.steps and by_int.ledger.steps == by_float.ledger.steps
    assert by_int.ledger.log_wealth == by_float.ledger.log_wealth
    saved = encode_state(by_int)
    assert saved == encode_state(by_float)
    clone = decode_state(SurvivalState, saved)
    assert clone.last_time == by_float.last_time
    assert clone.ledger.log_wealth == by_float.ledger.log_wealth


def test_record_validation():
    with pytest.raises(ValueError):
        make_state().step(SurvivalRecord(-1.0, 1, 0))
    with pytest.raises(ValueError):
        make_state().step(SurvivalRecord(1.0, 2, 0))
    with pytest.raises(ValueError):
        make_state().step(SurvivalRecord(1.0, 1, 3))
