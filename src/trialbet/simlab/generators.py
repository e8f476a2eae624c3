"""Trial generators for the Monte Carlo lab.

Every generator takes a ``numpy.random.Generator`` and draws in a fixed
order, so a replication is fully determined by its RNG stream.  Arms are
i.i.d. Bernoulli(p) rather than block-randomized, matching the simulation
design the operating characteristics are calibrated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..multistate import DEFAULT_MODEL, TransitionMatrix


def binary_trial(rng, n: int, rate_trt: float, rate_ctrl: float, p_alloc: float = 0.5):
    """(treatment, outcome) arrays for ``n`` patients with per-arm event rates."""
    treatment = (rng.random(n) < p_alloc).astype(np.int8)
    rates = np.where(treatment == 1, rate_trt, rate_ctrl)
    outcome = (rng.random(n) < rates).astype(np.int8)
    return treatment, outcome


def death_stream(rng, n_deaths: int, coin: float):
    """Arm labels of ``n_deaths`` deaths; each is treatment with probability ``coin``."""
    return (rng.random(n_deaths) < coin).astype(np.int8)


def continuous_trial(rng, n: int, mu_trt: float, mu_ctrl: float, sd: float = 1.0,
                     p_alloc: float = 0.5):
    """(treatment, outcome) arrays with normal outcomes of equal variance."""
    treatment = (rng.random(n) < p_alloc).astype(np.int8)
    outcome = rng.normal(np.where(treatment == 1, mu_trt, mu_ctrl), sd)
    return treatment, outcome


def survival_trial(rng, n: int, hr: float = 1.0, shape: float = 1.2, scale: float = 10.0,
                   censor_upper: float | None = None, recruit_period: float | None = None):
    """Weibull survival trial; returns (time, status, treatment, entry).

    The hazard ratio acts through the treatment-arm scale,
    ``scale / hr**(1/shape)``, so ``shape`` is shared and the hazards are
    proportional.  ``shape=1`` gives exponential survival.  With
    ``censor_upper`` set, independent Uniform(0, censor_upper) censoring is
    applied.  With ``recruit_period`` set, entries are Uniform(0, period) and
    the returned times are calendar event times (entry + time on study);
    otherwise entry is all zeros.
    """
    treatment = (rng.random(n) < 0.5).astype(np.int8)
    scale_trt = scale / (hr ** (1.0 / shape))
    u = rng.random(n)
    time = np.where(treatment == 1, scale_trt, scale) * (-np.log(u)) ** (1.0 / shape)
    if censor_upper is not None:
        c = rng.uniform(0.0, censor_upper, n)
        status = (time <= c).astype(np.int8)
        time = np.minimum(time, c)
    else:
        status = np.ones(n, dtype=np.int8)
    if recruit_period is not None:
        entry = rng.uniform(0.0, recruit_period, n)
        time = entry + time
    else:
        entry = np.zeros(n)
    return time, status, treatment, entry


@dataclass(frozen=True)
class MultistateTrial:
    """One simulated trajectory trial, transitions flattened in patient order."""

    good: np.ndarray         # bool per transition
    arms: np.ndarray         # int8 per transition
    final_states: np.ndarray # state index per patient at the horizon


def multistate_trial(rng, n_patients: int, matrix_trt: TransitionMatrix,
                     matrix_ctrl: TransitionMatrix, start: str = "ICU",
                     horizon: int = 28) -> MultistateTrial:
    """Simulate daily state paths for a cohort and flatten their transitions.

    Paths are drawn day-synchronously for the whole cohort (absorbing rows
    are identity, so absorbed patients simply stay put), then transitions are
    emitted grouped by patient in day order - the order the monitoring stream
    replays them in.
    """
    arms = (rng.random(n_patients) < 0.5).astype(np.int8)
    uniforms = rng.random((horizon, n_patients))  # day by day, as separate draws would
    cum = np.asarray([matrix_ctrl.probs, matrix_trt.probs], dtype=float).cumsum(axis=2)
    n_states = len(DEFAULT_MODEL.states)
    # thresholds[k][arm * n_states + state] is that row's cumulative probability
    # up to state k; the count of thresholds u reaches is the categorical draw.
    # The row total (1, or 1 - ulp) is left out, so a u past it draws the last state.
    thresholds = cum.reshape(2 * n_states, n_states).T[:-1].copy()
    row = arms.astype(np.intp) * n_states
    states = np.empty((n_patients, horizon + 1), dtype=np.int8)
    states[:, 0] = DEFAULT_MODEL.index(start)
    for day in range(horizon):
        key = row + states[:, day]
        u = uniforms[day]
        drawn = np.zeros(n_patients, dtype=np.int8)
        for column in thresholds:
            drawn += u >= column[key]
        states[:, day + 1] = drawn
    changed = states[:, 1:] != states[:, :-1]
    pat_idx, day_idx = np.nonzero(changed)  # row-major: grouped by patient
    frm = states[pat_idx, day_idx]
    to = states[pat_idx, day_idx + 1]
    good = np.zeros(len(pat_idx), dtype=bool)
    for a, b in DEFAULT_MODEL.good:
        good |= (frm == DEFAULT_MODEL.index(a)) & (to == DEFAULT_MODEL.index(b))
    return MultistateTrial(good=good, arms=arms[pat_idx],
                           final_states=states[:, horizon].copy())


__all__ = [
    "binary_trial", "death_stream", "continuous_trial", "survival_trial",
    "MultistateTrial", "multistate_trial", "DEFAULT_MODEL",
]
