"""Brute-force fairness oracles, and a direct simulation of the state model.

The martingale property says: with the outcome stream frozen, averaging the
final wealth over *all* possible arm-label sequences (weighted by their
randomization probabilities) must give exactly 1.  These enumerators replay
the production bet rules down every branch of the arm tree and accumulate
that expectation directly - no shortcuts shared with the code under test
beyond the bet rules themselves.  ``null_expectation`` does the same for one
two-sided wager, from the payouts the ledger settles.

``survival_records`` puts a drawn survival trial in the order the monitor
takes it: by time on study, stable on ties.

``day_horizon_distribution`` draws one arm's cohort through its daily
transition matrix on its own: the horizon state distribution that is checked
against the matrix power and against the source's day-28 table (C11).

``binary_draw``, ``death_draw``, ``continuous_draw``, ``survival_draw`` and
``multistate_draw`` draw one trial from one stream with numpy's own
``random``, ``normal`` and ``uniform`` calls, in the order a replication's
stream has always been read (multistate: one patient at a time): the
references the block generators' rows are compared against.

``parse_event`` and ``head_to_head_per_trial`` are the plain forms of two
optimised paths, kept as the references those paths are compared against:
``json.loads`` plus two set differences per NDJSON record, and one kernel
call per trial and monitor in the deaths-vs-binary comparison.

``stream_trajectories`` replays a scenario's trials through the live monitor
states, one event at a time, recording every ledger row: the reference the
batch replay behind ``trialbet trajectories`` is compared against.

``seed_sequence_rng`` is replication ``rep``'s stream as numpy derives it,
``default_rng(SeedSequence(seed, spawn_key=(rep,)))``: the reference for the
engine's vectorized derivation of a replication range's streams, and for
``rep_rng``.

``rate_gap``, ``binary_bet``, ``deaths_bet``, ``multistate_bet`` and
``survival_prepare`` are the plain forms of the count kernels and the survival
order: one ``np.where`` per rule, a new array per step, int64 labels, and a
stable argsort of every survival block.  The batch kernels, which work in
place and sort packed keys, must return the same arrays, byte for byte.

``coefficient``, ``clamp_wager``, ``clamp_cohens_d`` and ``classify`` are the
plain forms of the per-event monitor path: the ``min``/``max`` clamps, and a
classification that tests each rule in turn.  The production forms must give
the same ``outcome``: the same floats, bit for bit, and the same exceptions.
"""

from __future__ import annotations

import json
import math

import numpy as np

from trialbet.cli import EventError
from trialbet.core import WAGER_MAX, WAGER_MIN, RampSchedule, WealthLedger
from trialbet.deaths import death_coin
from trialbet.multistate import DEFAULT_MODEL
from trialbet.multistate import WAGER_MAX as MS_WAGER_MAX
from trialbet.multistate import WAGER_MIN as MS_WAGER_MIN
from trialbet.simlab import batch, generators
from trialbet.simlab.engine import rep_rng
from trialbet.simlab.scenario import SIM_VARIANTS
from trialbet.simlab.sizing import size_two_proportion
from trialbet.survival import SurvivalRecord
from trialbet.variants import MONITORS, flag_field


def seed_sequence_rng(seed: int, rep: int) -> np.random.Generator:
    """Replication ``rep`` of master seed ``seed``, straight from ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def null_expectation(wager: float, p: float) -> float:
    """Expected payout of a two-sided wager when arm 1 has probability ``p``,
    from the multipliers ``WealthLedger.bet`` settles on each arm; 1 when fair."""
    ledger = WealthLedger(record_steps=True)
    ledger.bet(wager, 1, p, 1)
    ledger.bet(wager, 0, p, 2)
    m1, m0 = (step.multiplier for step in ledger.steps)
    return p * m1 + (1.0 - p) * m0


def mean_final_wealth(make_state, apply_arm, k: int, p: float = 0.5) -> float:
    """E[final wealth] over all 2^k arm sequences with P(arm=1) = p.

    ``make_state()`` returns a fresh monitor; ``apply_arm(state, j, arm)``
    feeds observation ``j`` with the given arm label.
    """
    total = 0.0
    for bits in range(2 ** k):
        state = make_state()
        prob = 1.0
        for j in range(k):
            arm = (bits >> j) & 1
            prob *= p if arm == 1 else (1.0 - p)
            apply_arm(state, j, arm)
        total += prob * state.ledger.wealth
    return total


def mean_final_wealth_survival(make_state, times, k: int) -> float:
    """E[final wealth] over all event-arm sequences for the survival monitor.

    Here the branch probability is not constant: under the null the event at
    step j is treated with probability equal to the treated fraction of the
    current risk set, which the enumerator reads from the evolving state.
    Zero-probability branches (an empty arm) are pruned.
    """
    total = 0.0
    for bits in range(2 ** k):
        state = make_state()
        prob = 1.0
        for j in range(k):
            arm = (bits >> j) & 1
            p_j = state.risk_proportion()
            prob *= p_j if arm == 1 else (1.0 - p_j)
            if prob == 0.0:
                break
            state.step(SurvivalRecord(float(times[j]), 1, arm))
        if prob > 0.0:
            total += prob * state.ledger.wealth
    return total


def survival_records(time, status, arm) -> list[SurvivalRecord]:
    """A drawn trial's records in the order a monitor takes them: by time on
    study, stable on ties.  With staggered entry, pass ``time - entry``."""
    return sorted((SurvivalRecord(float(a), int(b), int(c)) for a, b, c in zip(time, status, arm)),
                  key=lambda r: r.time)


def day_horizon_distribution(rng, n_patients: int, matrix, start: str = "ICU",
                             horizon: int = 28) -> np.ndarray:
    """Empirical state distribution at the horizon for one arm's matrix."""
    cum = np.asarray(matrix.probs, dtype=float).cumsum(axis=1)
    n_states = len(DEFAULT_MODEL.states)
    states = np.full(n_patients, DEFAULT_MODEL.index(start), dtype=np.int8)
    for _ in range(horizon):
        u = rng.random(n_patients)
        drawn = (u[:, None] >= cum[states]).sum(axis=1)
        states = np.minimum(drawn, n_states - 1).astype(np.int8)
    counts = np.bincount(states, minlength=len(DEFAULT_MODEL.states))
    return counts / n_patients


def binary_draw(rng, n: int, rate_trt: float, rate_ctrl: float, p_alloc: float = 0.5):
    treatment = (rng.random(n) < p_alloc).astype(np.int8)
    return treatment, (rng.random(n) < np.where(treatment == 1, rate_trt, rate_ctrl)).astype(np.int8)


def death_draw(rng, n: int, coin: float):
    return ((rng.random(n) < coin).astype(np.int8),)


def continuous_draw(rng, n: int, mu_trt: float, mu_ctrl: float, sd: float = 1.0,
                    p_alloc: float = 0.5):
    treatment = (rng.random(n) < p_alloc).astype(np.int8)
    return treatment, rng.normal(np.where(treatment == 1, mu_trt, mu_ctrl), sd)


def survival_draw(rng, n: int, hr: float = 1.0, shape: float = 1.2, scale: float = 10.0,
                  censor_upper: float | None = None, recruit_period: float | None = None):
    treatment = (rng.random(n) < 0.5).astype(np.int8)
    scale_arm = np.where(treatment == 1, scale / hr ** (1.0 / shape), scale)
    time = scale_arm * (-np.log(rng.random(n))) ** (1.0 / shape)
    status = np.ones(n, dtype=np.int8)
    if censor_upper is not None:
        c = rng.uniform(0.0, censor_upper, n)
        status = (time <= c).astype(np.int8)
        time = np.minimum(time, c)
    entry = np.zeros(n)
    if recruit_period is not None:
        entry = rng.uniform(0.0, recruit_period, n)
        time = entry + time
    return time, status, treatment, entry


def multistate_draw(rng, n: int, matrix_trt, matrix_ctrl, start: str = "ICU",
                    horizon: int = 28):
    """(good, arms): each patient walked through the days on its own, the
    next state the first whose cumulative probability exceeds u (the last
    state past the row total)."""
    arms = (rng.random(n) < 0.5).astype(np.int8)
    u = rng.random((horizon, n))
    cum = [np.cumsum(np.asarray(m.probs, dtype=float), axis=1) for m in (matrix_ctrl, matrix_trt)]
    good, arm_of = [], []
    for patient, arm in enumerate(arms.tolist()):
        state = DEFAULT_MODEL.index(start)
        for day in range(horizon):
            drawn = int(np.searchsorted(cum[arm][state][:-1], u[day, patient], side="right"))
            if drawn != state:
                good.append((DEFAULT_MODEL.states[state], DEFAULT_MODEL.states[drawn])
                            in DEFAULT_MODEL.good)
                arm_of.append(arm)
            state = drawn
    return np.array(good, dtype=bool), np.array(arm_of, dtype=np.int8)


def parse_event(monitor, line: str, line_no: int) -> tuple:
    """One NDJSON record through ``json.loads`` and two set differences."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise EventError(f"line {line_no}: record must be a JSON object")
    missing = monitor.required - set(record)
    if missing:
        raise EventError(f"line {line_no}: missing fields {sorted(missing)}")
    unknown = set(record) - monitor.required - monitor.optional
    if unknown:
        raise EventError(f"line {line_no}: unknown fields {sorted(unknown)}")
    try:
        return monitor.parse(record, flag_field(record, "arm"))
    except ValueError as exc:
        raise EventError(f"line {line_no}: {exc}") from exc


def head_to_head_per_trial(baselines, arr: float, power: float, alpha: float,
                           n_sims: int, seed: int) -> list[tuple]:
    """(baseline, coin, N, mean deaths, binary power, deaths power) per baseline,
    each trial drawn and replayed on its own."""
    rows = []
    for b_idx, baseline in enumerate(baselines):
        p_trt = baseline - arr
        n_pat = size_two_proportion(baseline, p_trt, power, alpha)
        bin_hits = death_hits = total_deaths = 0
        for rep in range(n_sims):
            t, y = generators.binary_trial(rep_rng(seed, b_idx * n_sims + rep), n_pat,
                                           p_trt, baseline)
            bin_hits += batch.first_crossing(batch.binary_log_wealth(t, y), alpha) is not None
            death_arms = t[y == 1]
            total_deaths += death_arms.size
            logw_d = batch.deaths_log_wealth(death_arms)
            death_hits += bool(logw_d.size) and batch.first_crossing(logw_d, alpha) is not None
        rows.append((baseline, death_coin(baseline, p_trt), n_pat, total_deaths / n_sims,
                     bin_hits / n_sims, death_hits / n_sims))
    return rows


def _feed_survival(data, p):
    time, status, arm, entry = data
    options = {"lambda_max": p["lambda_max"], "risk_trt": int(arm.sum()),
               "risk_ctrl": int((1 - arm).sum())}
    # time - entry is identical to time when entry is simultaneous
    return options, ((rec,) for rec in survival_records(time - entry, status, arm))


# per variant, from a drawn trial and its scenario parameters: the monitor's
# options, and the arguments of each call to its step method
_FEEDS = {
    "binary": lambda d, p: ({"p": p["p_alloc"]}, zip(d[1].tolist(), d[0].tolist())),
    "deaths": lambda d, p: ({}, zip(d[0].tolist())),
    "continuous": lambda d, p: ({"p": p["p_alloc"], "c_max": p["c_max"]},
                                zip(d[1].tolist(), d[0].tolist())),
    "survival": _feed_survival,
    "multistate": lambda d, p: ({}, zip(d[0].tolist(), d[1].tolist())),
}


def stream_trajectories(scenario, n_trials: int) -> list[list]:
    """Each of replications 0..n_trials-1 streamed through its monitor state;
    returns every trial's recorded ``WealthStep`` list.

    The trials are the engine's: the same per-replication seeding and
    generators.  The monitors know only their default wager rules, so the
    scenario must use them.  Multistate transitions arrive classified, so
    they go to ``step_classified``.
    """
    variant, p = scenario.variant, scenario.params
    sim = SIM_VARIANTS[variant]
    assert all(p[key] == sim.defaults[key] for key in ("fixed_dev", "sign_only", "bet_rule")
               if key in p), "the streaming monitors have no batch-only wager rule"
    trials = []
    for rep in range(n_trials):
        options, events = _FEEDS[variant](sim.generate(rep_rng(scenario.seed, rep), p), p)
        state = MONITORS[variant].state(sched=RampSchedule(p["burn_in"], p["ramp"]),
                                        alpha=scenario.alpha, record_steps=True, **options)
        step = state.step_classified if variant == "multistate" else state.step
        for args in events:
            step(*args)
        trials.append(state.ledger.steps)
    return trials


def _ramp(idx, burn_in, ramp):
    return np.clip((idx - float(burn_in)) / ramp, 0.0, 1.0)


def rate_gap(arm, outcome, burn_in, ramp):
    """(wager 0.5 +- 0.5 c (rate1 - rate0) on ``outcome``, earlier arm-1 and
    arm-0 counts): the rates are over earlier observations, 0.5 in an empty arm."""
    idx = np.arange(1, arm.shape[-1] + 1)
    n1 = batch._before(arm)
    n0 = idx - 1 - n1
    rate1 = np.where(n1 > 0, batch._before(arm * outcome) / np.maximum(n1, 1), 0.5)
    rate0 = np.where(n0 > 0, batch._before((1 - arm) * outcome) / np.maximum(n0, 1), 0.5)
    half = 0.5 * _ramp(idx, burn_in, ramp) * (rate1 - rate0)
    return np.where(outcome == 1, 0.5 + half, 0.5 - half), n1, n0


def binary_bet(treatment, outcome, p, burn_in, ramp, fixed_dev=None):
    """The binary replay: ``batch.binary_bet``."""
    t = np.asarray(treatment, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if fixed_dev is None:
        lam = rate_gap(t, y, burn_in, ramp)[0]
    else:
        lam = np.where(y == 1, 0.5 + fixed_dev, 0.5 - fixed_dev)
    lam = np.clip(lam, WAGER_MIN, WAGER_MAX)
    mult = batch._payout(t, lam, p)
    if fixed_dev is None:
        lam[..., :1] = np.nan
        mult[..., :1] = 1.0
    return lam, mult


def deaths_bet(arms, burn_in, ramp):
    """The deaths-only replay: ``batch.deaths_bet``."""
    a = np.asarray(arms, dtype=np.int64)
    idx = np.arange(1, a.shape[-1] + 1)
    tot_prev = idx - 1
    p_obs = np.where(tot_prev > 0, batch._before(a) / np.maximum(tot_prev, 1), 0.5)
    c = _ramp(idx, burn_in, ramp)
    lam = np.where((idx > burn_in) & (tot_prev > 0),
                   np.clip(0.5 + c * (p_obs - 0.5), WAGER_MIN, WAGER_MAX),
                   0.5)
    return lam, batch._payout(a, lam)


def multistate_bet(good, arms, burn_in, ramp):
    """The transition-stream replay: ``batch.multistate_bet``."""
    g = np.asarray(good, dtype=np.int64)
    a = np.asarray(arms, dtype=np.int64)
    lam, n1, n0 = rate_gap(a, g, burn_in, ramp)
    bettable = (np.arange(1, a.shape[-1] + 1) > burn_in) & (n1 > 0) & (n0 > 0)
    lam = np.clip(np.where(bettable, lam, 0.5), MS_WAGER_MIN, MS_WAGER_MAX)
    return lam, batch._payout(a, lam)


def survival_prepare(time, status, treatment) -> batch.SurvivalPrepared:
    """Each row's records in stable time order, with their risk sets and scores:
    ``batch.survival_prepare``."""
    t = np.asarray(time, dtype=float)
    s = np.asarray(status, dtype=np.int64)
    a = np.asarray(treatment, dtype=np.int64)
    order = np.argsort(t, axis=-1, kind="stable")
    t, s, a = (np.take_along_axis(x, order, axis=-1) for x in (t, s, a))
    risk1 = a.sum(axis=-1, keepdims=True) - batch._before(a)
    p_j = risk1 / np.arange(a.shape[-1], 0, -1)
    u = np.where(s == 1, a - p_j, 0.0)
    u = np.where(np.isfinite(t), u, np.nan)
    return batch.SurvivalPrepared(s == 1, p_j, u, batch._before(u))


def outcome(f, *args):
    """What ``f(*args)`` gives: a float result as its bits (so -0.0 is not 0.0),
    any other result as is, or a ValueError as its type and text."""
    try:
        result = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.hex() if isinstance(result, float) else result


def coefficient(sched, i: int) -> float:
    """``RampSchedule.coefficient`` through ``min`` and ``max``."""
    if i < 1:
        raise ValueError(f"observation index must be >= 1, got {i}")
    return min(1.0, max(0.0, (i - sched.burn_in) / sched.ramp))


def clamp_wager(raw: float, lo: float = WAGER_MIN, hi: float = WAGER_MAX) -> float:
    """``core.clamp_wager`` through ``min`` and ``max``."""
    if not math.isfinite(raw):
        raise ValueError(f"invalid wager: {raw!r}")
    return min(hi, max(lo, raw))


def clamp_cohens_d(d: float) -> float:
    """The clamp of ``ContinuousState.cohens_d`` through ``min`` and ``max``."""
    return min(1.0, max(-1.0, d))


def classify(from_state: str, to_state: str) -> bool:
    """``multistate.classify`` testing each rule in turn."""
    for s in (from_state, to_state):
        if s not in DEFAULT_MODEL.states:
            raise ValueError(f"unknown state: {s!r}")
    if from_state == to_state:
        raise ValueError(f"not a transition: {from_state!r} -> {to_state!r}")
    if from_state in DEFAULT_MODEL.absorbing:
        raise ValueError(f"absorbing state {from_state!r} has no outgoing transitions")
    return (from_state, to_state) in DEFAULT_MODEL.good
