import numpy as np
import pytest

from trialbet.binary import BinaryState
from trialbet.core import RampSchedule
from trialbet.simlab import batch
from trialbet.simlab.generators import binary_trial
from trialbet.simlab.engine import rep_rng

from oracles import mean_final_wealth


def state_with_counts(n_trt, e_trt, n_ctrl, e_ctrl, i):
    st = BinaryState(record_steps=True)
    st.n_trt, st.e_trt, st.n_ctrl, st.e_ctrl, st.i = n_trt, e_trt, n_ctrl, e_ctrl, i
    return st


class TestDelta:
    def test_worked_example_patient_200(self):
        st = state_with_counts(100, 35, 99, 40, 199)
        assert st.delta() == pytest.approx(35 / 100 - 40 / 99, abs=0)
        assert round(st.delta(), 3) == -0.054

    def test_empty_trial(self):
        assert BinaryState().delta() == 0.0

    def test_worked_example_patient_202(self):
        st = state_with_counts(101, 35, 100, 41, 201)
        assert round(st.delta(), 3) == -0.063

    def test_one_sided_enrollment_uses_half(self):
        st = state_with_counts(3, 2, 0, 0, 3)
        assert st.delta() == pytest.approx(2 / 3 - 0.5)


class TestWager:
    def test_worked_example_event(self):
        st = state_with_counts(100, 35, 99, 40, 199)
        assert round(st.wager(1, 200), 3) == 0.473

    def test_worked_example_nonevent(self):
        # patient 201: delta is exactly -0.060, non-event leans toward treatment
        st = state_with_counts(100, 35, 100, 41, 200)
        assert st.wager(0, 201) == pytest.approx(0.530, abs=1e-12)

    def test_burn_in_is_neutral(self):
        st = state_with_counts(20, 10, 20, 2, 40)
        assert st.wager(1, 40) == 0.5
        assert st.wager(0, 12) == 0.5


class TestStep:
    def test_worked_example_sequence(self):
        st = state_with_counts(100, 35, 99, 40, 199)
        st.step(1, 0)
        st.step(0, 1)
        st.step(1, 1)
        s1, s2, s3 = st.ledger.steps
        assert s1.multiplier == pytest.approx(1.0540404040404040, rel=1e-12)
        assert s2.multiplier == pytest.approx(1.06, abs=1e-12)
        assert s3.multiplier == pytest.approx(0.9365346534653465, rel=1e-12)
        assert st.ledger.wealth == pytest.approx(
            s1.multiplier * s2.multiplier * s3.multiplier, rel=1e-12)
        assert (st.n_trt, st.e_trt, st.n_ctrl, st.e_ctrl) == (102, 36, 100, 41)

    def test_first_patient_never_bets(self):
        st = BinaryState(record_steps=True)
        st.step(1, 1)
        assert st.ledger.steps == [] and st.ledger.wealth == 1.0
        st.step(1, 0)
        assert [s.index for s in st.ledger.steps] == [2]

    def test_input_validation(self):
        st = BinaryState()
        with pytest.raises(ValueError):
            st.step(2, 0)
        with pytest.raises(ValueError):
            st.step(0, -1)


def test_predictability_of_wagers():
    """The wager at step i depends only on the first i-1 pairs plus outcome_i."""
    rng = np.random.default_rng(5)
    t, y = binary_trial(rng, 120, 0.3, 0.4)
    sched = RampSchedule(10, 20)

    def wager_at(events, i, outcome_i):
        st = BinaryState(sched=sched)
        for yy, tt in events[: i - 1]:
            st.step(yy, tt)
        return st.wager(outcome_i, i)

    events = list(zip(y.tolist(), t.tolist()))
    lam = wager_at(events, 80, 1)
    mutated = events[:79] + [(1 - yy, 1 - tt) for yy, tt in events[79:]]
    assert wager_at(mutated, 80, 1) == lam


def test_streaming_matches_batch_replay():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t, y = binary_trial(rng, 300, 0.30, 0.40)
        st = BinaryState()
        for yy, tt in zip(y.tolist(), t.tolist()):
            st.step(yy, tt)
        logw = batch.binary_log_wealth(t, y)
        assert abs(st.ledger.log_wealth - logw[-1]) < 1e-12
        assert (batch.first_crossing(logw, 0.05) == st.ledger.crossed_at) or \
               (batch.first_crossing(logw, 0.05) is None and not st.ledger.crossed)


def test_enumeration_fairness_oracle():
    outcomes = [1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1]

    def make_state():
        return BinaryState(sched=RampSchedule(0, 4))

    def apply_arm(state, j, arm):
        state.step(outcomes[j], arm)

    assert mean_final_wealth(make_state, apply_arm, len(outcomes)) == \
        pytest.approx(1.0, abs=1e-9)


def test_enumeration_fairness_unequal_allocation():
    outcomes = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]

    def make_state():
        return BinaryState(sched=RampSchedule(1, 3), p=0.3)

    def apply_arm(state, j, arm):
        state.step(outcomes[j], arm)

    assert mean_final_wealth(make_state, apply_arm, len(outcomes), p=0.3) == \
        pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_patients", [2942, 712, 3938, 954])
def test_null_rejection_rate_bounded(n_patients):
    """Outcome stream independent of arms: crossing rate stays below alpha
    across every design-table trial size."""
    hits = 0
    n_sims = 400
    for rep in range(n_sims):
        rng = rep_rng(1234 + n_patients, rep)
        t, y = binary_trial(rng, n_patients, 0.40, 0.40)
        logw = batch.binary_log_wealth(t, y)
        hits += batch.first_crossing(logw, 0.05) is not None
    rate = hits / n_sims
    assert rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / n_sims)
