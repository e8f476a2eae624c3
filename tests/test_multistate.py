import numpy as np
import pytest
from hypothesis import given, strategies as hs

from trialbet.core import RampSchedule
from trialbet.multistate import (
    CONTROL_DAILY,
    DEFAULT_MODEL,
    TREATMENT_DAILY,
    MultistateState,
    TransitionMatrix,
    classify,
)
from trialbet.simlab import batch
from trialbet.simlab.generators import multistate_trial

import oracles
from oracles import day_horizon_distribution, mean_final_wealth, outcome
from reference_impls import simulate_patient_path


class TestClassify:
    def test_good_transitions(self):
        assert classify("ICU", "Ward") is True
        assert classify("Ward", "Home") is True

    def test_bad_transitions(self):
        assert classify("Ward", "ICU") is False   # readmission
        assert classify("ICU", "Dead") is False
        assert classify("Ward", "Dead") is False

    def test_self_transition_rejected(self):
        with pytest.raises(ValueError, match="not a transition"):
            classify("ICU", "ICU")

    def test_absorbing_source_rejected(self):
        with pytest.raises(ValueError, match="no outgoing"):
            classify("Home", "Ward")

    def test_unknown_state(self):
        with pytest.raises(ValueError, match="unknown state"):
            classify("ICU", "Hospice")

    def test_every_pair_as_the_rule_by_rule_form(self):
        """All 16 state pairs, and unknown names (unhashable ones too), give the
        same result or the same refusal as testing each rule in turn."""
        names = [*DEFAULT_MODEL.states, "Hospice", "", "icu", None, 3, ("ICU",), ["Ward"]]
        for a in names:
            for b in names:
                assert outcome(classify, a, b) == outcome(oracles.classify, a, b)

    @given(hs.sampled_from(DEFAULT_MODEL.states) | hs.text(max_size=5),
           hs.sampled_from(DEFAULT_MODEL.states) | hs.text(max_size=5))
    def test_any_names_as_the_rule_by_rule_form(self, a, b):
        assert outcome(classify, a, b) == outcome(oracles.classify, a, b)


class TestTransitionMatrix:
    def test_builtin_matrices_valid(self):
        for m in (CONTROL_DAILY, TREATMENT_DAILY):
            arr = np.asarray(m.probs, dtype=float)
            assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)

    def test_row_sum_validation(self):
        rows = ((0.9, 0.05, 0.03, 0.01),) + tuple(CONTROL_DAILY.probs[1:])
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionMatrix(rows)

    def test_absorbing_identity_validation(self):
        rows = (CONTROL_DAILY.probs[0], CONTROL_DAILY.probs[1],
                (0.1, 0.0, 0.9, 0.0), CONTROL_DAILY.probs[3])
        with pytest.raises(ValueError, match="identity row"):
            TransitionMatrix(rows)


class TestPatientPath:
    def test_identity_matrix_never_moves(self):
        eye = TransitionMatrix(tuple(tuple(1.0 if i == j else 0.0 for j in range(4))
                                     for i in range(4)))
        final, transitions = simulate_patient_path(eye, np.random.default_rng(0))
        assert final == "ICU" and transitions == []

    def test_records_only_state_changes(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            final, transitions = simulate_patient_path(CONTROL_DAILY, rng)
            for frm, to, day in transitions:
                assert frm != to
                assert 1 <= day <= 28
            days = [day for _, _, day in transitions]
            assert days == sorted(days)

    def test_stops_at_absorbing_state(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            final, transitions = simulate_patient_path(TREATMENT_DAILY, rng)
            arrived = [to for _, to, _ in transitions]
            if "Dead" in arrived:
                assert arrived[-1] == "Dead" and final == "Dead"
            if "Home" in arrived:
                assert arrived[-1] == "Home" and final == "Home"

    def test_day28_distribution_matches_matrix_power(self):
        for matrix in (CONTROL_DAILY, TREATMENT_DAILY):
            power = np.linalg.matrix_power(np.asarray(matrix.probs, dtype=float), 28)
            analytic = power[DEFAULT_MODEL.index("ICU")]
            empirical = day_horizon_distribution(np.random.default_rng(3), 40_000, matrix)
            assert np.all(np.abs(empirical - analytic) < 0.02)


class TestMultistateStep:
    def test_burn_in_is_neutral(self):
        st = MultistateState(record_steps=True)
        st.step("ICU", "Ward", 1)
        (step,) = st.ledger.steps
        assert step.wager == 0.5 and step.multiplier == 1.0

    def test_needs_history_in_both_arms(self):
        st = MultistateState(sched=RampSchedule(0, 1), record_steps=True)
        st.step("ICU", "Ward", 1)  # only treatment history so far
        st.step("ICU", "Ward", 1)
        assert st.ledger.steps[-1].wager == 0.5

    def test_formula_and_clamp(self):
        st = MultistateState(sched=RampSchedule(0, 1), record_steps=True)
        st.good_trt, st.total_trt = 6, 10
        st.good_ctrl, st.total_ctrl = 5, 10
        st.step("ICU", "Ward", 1)  # delta 0.1, good, arm 1
        (step,) = st.ledger.steps
        assert step.wager == pytest.approx(0.55, abs=1e-12)
        assert step.multiplier == pytest.approx(1.10, abs=1e-12)

    def test_wager_clamped_to_wide_bounds(self):
        st = MultistateState(sched=RampSchedule(0, 1))
        st.good_trt, st.total_trt = 10, 10
        st.good_ctrl, st.total_ctrl = 0, 10
        # delta = 1 -> raw 1.0, clamped to 0.99 for a good transition
        assert st.wager(True, 21) == 0.99
        assert st.wager(False, 21) == 0.01

    def test_one_bet_per_transition(self):
        st = MultistateState()
        for k in range(25):
            st.step("ICU", "Ward" if k % 2 else "Dead", k % 2)
        assert st.ledger.n_steps == 25


def test_generator_groups_transitions_by_patient():
    rng = np.random.default_rng(5)
    trial = multistate_trial(rng, 200, TREATMENT_DAILY, CONTROL_DAILY)
    assert trial.good.shape == trial.arms.shape
    # a patient's transitions are contiguous, so arm labels change at most
    # once per patient boundary; verify against per-patient recount
    n_trans = trial.arms.size
    assert n_trans > 200  # ~2 transitions per patient on average


def test_streaming_matches_batch_replay():
    rng = np.random.default_rng(6)
    trial = multistate_trial(rng, 300, TREATMENT_DAILY, CONTROL_DAILY)
    st = MultistateState()
    for g, a in zip(trial.good.tolist(), trial.arms.tolist()):
        st.step_classified(g, int(a))
    logw = batch.multistate_log_wealth(trial.good, trial.arms)
    assert abs(st.ledger.log_wealth - logw[-1]) < 1e-12


def test_enumeration_fairness_oracle():
    goods = [True, False, False, True, True, False, True, False, True, True, False, False]

    def make_state():
        return MultistateState(sched=RampSchedule(2, 3))

    def apply_arm(state, j, arm):
        state.step_classified(goods[j], arm)

    assert mean_final_wealth(make_state, apply_arm, len(goods)) == \
        pytest.approx(1.0, abs=1e-9)
