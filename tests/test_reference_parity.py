"""Three-way parity: streaming states == vectorized engines == transliterated oracles.

Each variant is replayed three independent ways on the same fuzz streams;
full log-wealth trajectories must agree.  This pins the batch/incremental
equivalence contract against an implementation that shares no code with the
package.
"""

import math

import numpy as np
import pytest

from trialbet.binary import BinaryState
from trialbet.continuous import ContinuousState
from trialbet.core import RampSchedule
from trialbet.deaths import DeathsState
from trialbet.multistate import (
    CONTROL_DAILY,
    TREATMENT_DAILY,
    MultistateState,
)
from trialbet.simlab import batch, generators
from trialbet.survival import SurvivalState

from oracles import survival_records
from reference_impls import (
    compute_binary_reference,
    compute_continuous_reference,
    compute_deaths_reference,
    compute_multistate_reference,
    compute_survival_reference,
    simulate_patient_path,
)


def assert_trajectory_close(log_wealth, ref_wealth, tol=1e-10):
    ref_log = np.log(np.asarray(ref_wealth))
    assert np.max(np.abs(log_wealth - ref_log)) < tol


@pytest.mark.parametrize("seed", range(3))
def test_binary_three_way(seed):
    rng = np.random.default_rng(seed)
    t, y = generators.binary_trial(rng, 240, 0.30, 0.40)
    ref = compute_binary_reference(t.tolist(), y.tolist(), burn_in=40, ramp=60)
    logw = batch.binary_log_wealth(t, y, burn_in=40, ramp=60)
    assert_trajectory_close(logw, ref)
    st = BinaryState(sched=RampSchedule(40, 60))
    for i, (yy, tt) in enumerate(zip(y.tolist(), t.tolist())):
        st.step(yy, tt)
        assert abs(st.ledger.log_wealth - math.log(ref[i])) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_deaths_three_way(seed):
    rng = np.random.default_rng(10 + seed)
    arms = generators.death_stream(rng, 300, 0.38)
    ref = compute_deaths_reference(arms.tolist())
    logw = batch.deaths_log_wealth(arms)
    assert_trajectory_close(logw, ref["wealth"])
    st = DeathsState()
    for arm in arms.tolist():
        st.step(int(arm))
    assert abs(st.ledger.log_wealth - math.log(ref["wealth"][-1])) < 1e-10
    assert st.p_hat() == pytest.approx(ref["final_p"], abs=0)
    assert st.final_rr() == pytest.approx(ref["final_rr"], rel=1e-12)
    assert st.ledger.crossed == ref["crossed"]
    assert st.ledger.crossed_at == ref["crossed_at"]


@pytest.mark.parametrize("seed", range(3))
def test_continuous_three_way(seed):
    rng = np.random.default_rng(20 + seed)
    t, y = generators.continuous_trial(rng, 200, 0.35, 0.0)
    ref = compute_continuous_reference(t.tolist(), y.tolist(), burn_in=30, ramp=60)
    logw = batch.continuous_log_wealth(t[None, :], y[None, :], burn_in=30, ramp=60)[0]
    assert_trajectory_close(logw, ref)
    st = ContinuousState(sched=RampSchedule(30, 60))
    for yy, tt in zip(y.tolist(), t.tolist()):
        st.step(yy, tt)
    assert abs(st.ledger.log_wealth - math.log(ref[-1])) < 1e-10


@pytest.mark.parametrize("seed,censored", [(0, False), (1, True), (2, True)])
def test_survival_three_way(seed, censored):
    rng = np.random.default_rng(30 + seed)
    time, status, t, _ = generators.survival_trial(
        rng, 260, hr=0.75, censor_upper=22.0 if censored else None)
    ref = compute_survival_reference(time.tolist(), status.tolist(), t.tolist())
    logw = batch.survival_log_wealth(time, status, t)
    assert_trajectory_close(logw, ref)
    st = SurvivalState(risk_trt=int(t.sum()), risk_ctrl=int((1 - t).sum()))
    for rec in survival_records(time, status, t):
        st.step(rec)
    assert abs(st.ledger.log_wealth - math.log(ref[-1])) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_multistate_three_way(seed):
    rng = np.random.default_rng(40 + seed)
    transitions, arms = [], []
    for _ in range(120):  # patient-major stream, as the generator emits it
        arm = int(rng.random() < 0.5)
        matrix = TREATMENT_DAILY if arm else CONTROL_DAILY
        _, path = simulate_patient_path(matrix, rng)
        for frm, to, _day in path:
            transitions.append((frm, to))
            arms.append(arm)
    ref = compute_multistate_reference(transitions, arms)
    good = np.array([frm_to in (("ICU", "Ward"), ("Ward", "Home"))
                     for frm_to in transitions])
    logw = batch.multistate_log_wealth(good, np.array(arms))
    assert_trajectory_close(logw, ref)
    st = MultistateState()
    for (frm, to), arm in zip(transitions, arms):
        st.step(frm, to, arm)
    assert abs(st.ledger.log_wealth - math.log(ref[-1])) < 1e-10
