"""Slow, literal transliterations of the reference batch algorithms.

These exist only as oracles: each is written directly from the reference
per-observation recurrences, using plain Python loops and lists, sharing no
code with the package.  Parity tests pin the streaming states and the
vectorized engines against them.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from trialbet.multistate import DEFAULT_MODEL


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


def compute_binary_reference(treatment, outcome, p=0.5, burn_in=50, ramp=100):
    n = len(treatment)
    wealth = [1.0] * n
    for i in range(2, n + 1):  # 1-based patient index; patient 1 never bets
        trt_prev = treatment[: i - 1]
        out_prev = outcome[: i - 1]
        trt_events = [o for o, t in zip(out_prev, trt_prev) if t == 1]
        ctrl_events = [o for o, t in zip(out_prev, trt_prev) if t == 0]
        rate_trt = sum(trt_events) / len(trt_events) if trt_events else 0.5
        rate_ctrl = sum(ctrl_events) / len(ctrl_events) if ctrl_events else 0.5
        delta = rate_trt - rate_ctrl
        c = _clamp((i - burn_in) / ramp, 0.0, 1.0)
        lam = 0.5 + 0.5 * c * delta if outcome[i - 1] == 1 else 0.5 - 0.5 * c * delta
        lam = _clamp(lam, 0.001, 0.999)
        mult = lam / p if treatment[i - 1] == 1 else (1 - lam) / (1 - p)
        wealth[i - 1] = wealth[i - 2] * mult
    return wealth


def compute_deaths_reference(arms, burn_in=30, ramp=50, threshold=20.0):
    n = len(arms)
    wealth = [0.0] * n
    d_trt = d_ctrl = 0
    crossed, crossed_at = False, None
    for i in range(1, n + 1):
        total = d_trt + d_ctrl
        p_obs = d_trt / total if total > 0 else 0.5
        if i > burn_in and total > 0:
            c = _clamp((i - burn_in) / ramp, 0.0, 1.0)
            lam = _clamp(0.5 + c * (p_obs - 0.5), 0.001, 0.999)
        else:
            lam = 0.5
        mult = lam / 0.5 if arms[i - 1] == 1 else (1 - lam) / 0.5
        wealth[i - 1] = mult if i == 1 else wealth[i - 2] * mult
        if arms[i - 1] == 1:
            d_trt += 1
        else:
            d_ctrl += 1
        if not crossed and wealth[i - 1] >= threshold:
            crossed, crossed_at = True, i
    total = d_trt + d_ctrl
    final_p = d_trt / total if total > 0 else 0.5
    if final_p <= 0.001:
        final_rr = 0.0
    elif final_p >= 0.999:
        final_rr = math.inf
    else:
        final_rr = final_p / (1 - final_p)
    return {"wealth": wealth, "crossed": crossed, "crossed_at": crossed_at,
            "final_p": final_p, "final_rr": final_rr}


def compute_continuous_reference(treatment, outcome, p=0.5, burn_in=50, ramp=100,
                                 c_max=0.6):
    n = len(treatment)
    wealth = [1.0] * n
    for i in range(2, n + 1):
        out_prev = outcome[: i - 1]
        if (i - 1) < burn_in:
            wealth[i - 1] = wealth[i - 2]
            continue
        med = statistics.median(out_prev)
        mad = statistics.median([abs(x - med) for x in out_prev])
        if not math.isfinite(mad) or mad <= 0:
            mad = 1.0
        r = (outcome[i - 1] - med) / mad
        g = r / (1 + abs(r))
        trt_prev = treatment[: i - 1]
        t_vals = [o for o, t in zip(out_prev, trt_prev) if t == 1]
        c_vals = [o for o, t in zip(out_prev, trt_prev) if t == 0]
        if not t_vals or not c_vals:
            d_hat = 0.0
        else:
            sd_t = statistics.stdev(t_vals) if len(t_vals) >= 2 else float("nan")
            sd_c = statistics.stdev(c_vals) if len(c_vals) >= 2 else float("nan")
            if math.isnan(sd_t) or sd_t == 0:
                sd_t = 1.0
            if math.isnan(sd_c) or sd_c == 0:
                sd_c = 1.0
            s_pooled = math.sqrt((sd_t ** 2 + sd_c ** 2) / 2)
            d_hat = _clamp((statistics.fmean(t_vals) - statistics.fmean(c_vals)) / s_pooled,
                           -1.0, 1.0)
        ramp_frac = _clamp((i - burn_in) / ramp, 0.0, 1.0)
        lam = _clamp(0.5 + ramp_frac * c_max * g * d_hat, 0.001, 0.999)
        mult = lam / p if treatment[i - 1] == 1 else (1 - lam) / (1 - p)
        wealth[i - 1] = wealth[i - 2] * mult
    return wealth


def compute_survival_reference(time, status, treatment, burn_in=30, ramp=50,
                               lambda_max=0.25):
    rows = sorted(zip(time, status, treatment), key=lambda r: r[0])
    n = len(rows)
    wealth = [1.0] * n
    cumulative_z = 0.0
    risk_trt = sum(1 for r in rows if r[2] == 1)
    risk_ctrl = n - risk_trt
    for i in range(1, n + 1):
        t_i, s_i, a_i = rows[i - 1]
        if i > burn_in:
            c = _clamp((i - burn_in) / ramp, 0.0, 1.0)
            sign = (cumulative_z > 0) - (cumulative_z < 0)
            b = c * lambda_max * sign
        else:
            b = 0.0
        total = risk_trt + risk_ctrl
        p_null = risk_trt / total if total > 0 else 0.5
        if s_i == 1:
            u = (1.0 if a_i == 1 else 0.0) - p_null
            mult = 1.0 + b * u
            cumulative_z += u
            wealth[i - 1] = wealth[i - 2] * mult if i > 1 else mult
        else:
            if i > 1:
                wealth[i - 1] = wealth[i - 2]
        if a_i == 1:
            risk_trt = max(0, risk_trt - 1)
        else:
            risk_ctrl = max(0, risk_ctrl - 1)
    return wealth


def compute_multistate_reference(transitions, arms, burn_in=30, ramp=50,
                                 good_keys=("ICU>Ward", "Ward>Home")):
    n = len(transitions)
    wealth = [0.0] * n
    n_good_trt = n_total_trt = 0
    n_good_ctrl = n_total_ctrl = 0
    for i in range(1, n + 1):
        frm, to = transitions[i - 1]
        arm = arms[i - 1]
        is_good = f"{frm}>{to}" in good_keys
        if i > burn_in and n_total_trt > 0 and n_total_ctrl > 0:
            c = _clamp((i - burn_in) / ramp, 0.0, 1.0)
            rate_trt = n_good_trt / n_total_trt
            rate_ctrl = n_good_ctrl / n_total_ctrl
            delta = rate_trt - rate_ctrl
            lam = 0.5 + 0.5 * c * delta if is_good else 0.5 - 0.5 * c * delta
        else:
            lam = 0.5
        lam = _clamp(lam, 0.01, 0.99)
        mult = lam / 0.5 if arm == 1 else (1 - lam) / 0.5
        wealth[i - 1] = wealth[i - 2] * mult if i > 1 else mult
        if arm == 1:
            n_total_trt += 1
            n_good_trt += is_good
        else:
            n_total_ctrl += 1
            n_good_ctrl += is_good
    return wealth


def simulate_patient_path(matrix, rng, start="ICU", horizon=28):
    """Daily categorical draws from ``start`` until absorption or ``horizon``.

    ``matrix`` is a ``TransitionMatrix``.  Returns (final_state, transitions)
    where transitions is a list of (from_state, to_state, day) recording
    state changes only.
    """
    cum = np.cumsum(np.asarray(matrix.probs, dtype=float), axis=1)
    state = DEFAULT_MODEL.index(start)
    absorbing = {DEFAULT_MODEL.index(s) for s in DEFAULT_MODEL.absorbing}
    transitions = []
    for day in range(1, horizon + 1):
        if state in absorbing:
            break
        new_state = int(np.searchsorted(cum[state], rng.random(), side="right"))
        new_state = min(new_state, len(DEFAULT_MODEL.states) - 1)
        if new_state != state:
            transitions.append((DEFAULT_MODEL.states[state], DEFAULT_MODEL.states[new_state],
                                day))
        state = new_state
    return DEFAULT_MODEL.states[state], transitions
