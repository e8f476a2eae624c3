"""Trial generators for the Monte Carlo lab.

Every generator takes ``rng`` as one ``numpy.random.Generator`` or as a
sequence of B of them, and draws a whole block in one call: one trial per
stream, each stream drawn in a fixed order, so a replication is fully
determined by its RNG stream.  With one ``Generator`` a generator returns the
trial's 1-D arrays; with B it returns (B, n) arrays whose row r is bit for bit
what ``rngs[r]`` alone gives.  Multistate trials vary in length: one is a
``MultistateTrial``, the (good, arms) arrays the batch kernel reads, and B of
them are a list, which the engine zero-pads into blocks.  Each stream fills
its own row of the block's uniforms, and the arithmetic runs once over the
block.
Arms are i.i.d. Bernoulli(p) rather than block-randomized, matching the
simulation design the operating characteristics are calibrated against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..multistate import DEFAULT_MODEL, TransitionMatrix


def _streams(rng):
    """(the streams a call draws from, how it returns a block): a lone
    ``Generator`` draws one row and gets that row back."""
    if isinstance(rng, np.random.Generator):
        return [rng], lambda block: block[0]
    return list(rng), lambda block: block


def _uniforms(rngs, *shape) -> np.ndarray:
    """(B, *shape) uniforms: row r is ``rngs[r].random(shape)``, which draws
    ``shape[0]`` arrays of ``shape[1:]`` one after another, as separate calls would."""
    u = np.empty((len(rngs), *shape))
    for g, row in zip(rngs, u):
        g.random(out=row)
    return u


def binary_trial(rng, n: int, rate_trt: float, rate_ctrl: float, p_alloc: float = 0.5):
    """(treatment, outcome) arrays for ``n`` patients with per-arm event rates."""
    rngs, out = _streams(rng)
    u = _uniforms(rngs, 2, n)  # arms, then outcomes
    treatment = (u[:, 0] < p_alloc).astype(np.int8)
    rates = np.where(treatment == 1, rate_trt, rate_ctrl)
    return out(treatment), out((u[:, 1] < rates).astype(np.int8))


def death_stream(rng, n_deaths: int, coin: float):
    """Arm labels of ``n_deaths`` deaths; each is treatment with probability ``coin``."""
    rngs, out = _streams(rng)
    return out((_uniforms(rngs, n_deaths) < coin).astype(np.int8))


def continuous_trial(rng, n: int, mu_trt: float, mu_ctrl: float, sd: float = 1.0,
                     p_alloc: float = 0.5):
    """(treatment, outcome) arrays with normal outcomes of equal variance.

    An outcome is ``mu + sd * z`` with ``z`` standard normal, the arithmetic
    ``Generator.normal`` does.
    """
    rngs, out = _streams(rng)
    u, z = np.empty((2, len(rngs), n))
    for g, u_row, z_row in zip(rngs, u, z):
        g.random(out=u_row)
        g.standard_normal(out=z_row)
    treatment = (u < p_alloc).astype(np.int8)
    # float means: two ints would make an int64 array, which a larger int overflows;
    # an outcome past the float range is inf, whose replay the engine refuses
    with np.errstate(over="ignore"):
        y = np.where(treatment == 1, float(mu_trt), float(mu_ctrl)) + sd * z
    return out(treatment), out(y)


def survival_trial(rng, n: int, hr: float = 1.0, shape: float = 1.2, scale: float = 10.0,
                   censor_upper: float | None = None, recruit_period: float | None = None):
    """Weibull survival trial; returns (time, status, treatment, entry).

    The hazard ratio acts through the treatment-arm scale,
    ``scale / hr**(1/shape)``, so ``shape`` is shared and the hazards are
    proportional.  ``shape=1`` gives exponential survival.  With
    ``censor_upper`` set, independent Uniform(0, censor_upper) censoring is
    applied.  With ``recruit_period`` set, entries are Uniform(0, period) and
    the returned times are calendar event times (entry + time on study);
    otherwise entry is all zeros.  A Uniform(0, b) draw is ``b * u``, the
    arithmetic ``Generator.uniform`` does.
    """
    rngs, out = _streams(rng)
    # arms, event times, then censoring and entry times where they are drawn
    u = _uniforms(rngs, 2 + (censor_upper is not None) + (recruit_period is not None), n)
    treatment = (u[:, 0] < 0.5).astype(np.int8)
    # a time past the float range is inf (or NaN, as 0 * inf), whose replay the engine refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale_trt = scale / np.float64(hr) ** (1.0 / shape)  # 0 or inf past the float range
        time = np.where(treatment == 1, scale_trt, scale) * (-np.log(u[:, 1])) ** (1.0 / shape)
        if censor_upper is not None:
            c = u[:, 2] * censor_upper
            status = (time <= c).astype(np.int8)
            time = np.minimum(time, c)
        else:
            status = np.ones(time.shape, dtype=np.int8)
        if recruit_period is not None:
            entry = u[:, -1] * recruit_period
            time = entry + time
        else:
            entry = np.zeros(time.shape)
    return out(time), out(status), out(treatment), out(entry)


class MultistateTrial(NamedTuple):
    """One simulated trajectory trial, transitions flattened in patient order."""

    good: np.ndarray  # bool per transition
    arms: np.ndarray  # int8 per transition


def multistate_trial(rng, n_patients: int, matrix_trt: TransitionMatrix,
                     matrix_ctrl: TransitionMatrix, start: str = "ICU",
                     horizon: int = 28):
    """Simulate daily state paths for a cohort and flatten their transitions.

    Paths are drawn day-synchronously for every cohort of the block at once
    (absorbing rows are identity, so absorbed patients simply stay put), then
    each trial's transitions are emitted grouped by patient in day order - the
    order the monitoring stream replays them in.  Returns a ``MultistateTrial``
    for one ``Generator`` and a list of them for a sequence.
    """
    rngs, out = _streams(rng)
    arms = (_uniforms(rngs, n_patients) < 0.5).astype(np.int8).reshape(-1)  # trial by trial
    cum = np.asarray([matrix_ctrl.probs, matrix_trt.probs], dtype=float).cumsum(axis=2)
    n_states = len(DEFAULT_MODEL.states)
    # thresholds[k][arm * n_states + state] is that row's cumulative probability
    # up to state k; the count of thresholds u reaches is the categorical draw.
    # The row total (1, or 1 - ulp) is left out, so a u past it draws the last state.
    thresholds = cum.reshape(2 * n_states, n_states).T[:-1].copy()
    row = arms.astype(np.intp) * n_states
    states = np.empty((horizon + 1, arms.size), dtype=np.int8)  # day by patient
    states[0] = DEFAULT_MODEL.index(start)
    for day in range(horizon):
        # each stream's next n_patients uniforms, as one draw of (horizon, n_patients) gives them
        u = _uniforms(rngs, n_patients).reshape(-1)
        key = row + states[day]
        drawn = np.zeros(arms.size, dtype=np.int8)
        for column in thresholds:
            drawn += u >= column[key]
        states[day + 1] = drawn
    paths = np.ascontiguousarray(states.T)  # patient by day
    patient, day = np.divmod(np.flatnonzero(paths[:, 1:] != paths[:, :-1]), horizon)
    frm, to = paths[patient, day], paths[patient, day + 1]  # grouped by patient, in day order
    good = np.zeros(patient.size, dtype=bool)
    for a, b in DEFAULT_MODEL.good:
        good |= (frm == DEFAULT_MODEL.index(a)) & (to == DEFAULT_MODEL.index(b))
    cuts = np.searchsorted(patient, np.arange(1, len(rngs)) * n_patients)  # trial boundaries
    return out(list(map(MultistateTrial, np.split(good, cuts), np.split(arms[patient], cuts))))


__all__ = [
    "binary_trial", "death_stream", "continuous_trial", "survival_trial",
    "MultistateTrial", "multistate_trial", "DEFAULT_MODEL",
]
