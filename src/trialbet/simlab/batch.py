"""Vectorized wager kernels for Monte Carlo replication.

Each ``<variant>_bet`` replays a complete event stream and returns the
(wager, multiplier) arrays of the streaming monitor's bets, one entry per
observation: NaN and exactly 1.0 where the monitor bets nothing, so
``log_wealth`` adds exactly 0 there.  The bets are the state classes' (tests
pin this), computed with cumulative sums instead of a Python loop.  Every
kernel works along the last axis: each row of a (B, n) block of B trials is
bit for bit the row's own 1-D call, so the engine replays studies in blocks.
All but survival's are predictable: the wager at observation i reads earlier
observations and the outcome i is conditioned on, never its arm, so a trial
followed by any suffix keeps its wagers and multipliers bit for bit, and the
engine zero-pads trials of varying length.  Survival is exempt and never
padded: its risk sets count the records still to come.

Strategy variants used by the wage-asymmetry study live here as keyword
switches: ``fixed_dev`` for the binary monitor, ``bet_rule`` for survival,
``sign_only`` for continuous.  Where strategies share costly work, a replay
is split into ``<variant>_prepare``, which no wager rule reads (continuous:
the prefix median/MAD and running Cohen's d; survival: the sort, risk sets
and scores), and a cheap ``<variant>_bet``.  ``<variant>_log_wealth`` is the
log-wealth of a whole replay.  Each shared rule is one helper: ``_payout``
settles every two-sided bet, ``_rate_gap`` is the binary and multistate
wager, ``_ramp`` the coefficient ramp, and ``_before`` every prefix sum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .. import binary, continuous, deaths, multistate, survival
from ..continuous import center_scales
from ..core import WAGER_MAX, WAGER_MIN
from ..multistate import WAGER_MAX as MS_WAGER_MAX
from ..multistate import WAGER_MIN as MS_WAGER_MIN

# Keyword defaults are each monitor's own, so a bare replay matches a default monitor.
_BINARY, _DEATHS = binary.DEFAULT_SCHEDULE, deaths.DEFAULT_SCHEDULE
_CONTINUOUS, _SURVIVAL = continuous.DEFAULT_SCHEDULE, survival.DEFAULT_SCHEDULE
_MULTISTATE = multistate.DEFAULT_SCHEDULE


def _clip(x, lo: float, hi: float) -> np.ndarray:
    """``np.clip(x, lo, hi)`` bit for bit, at a fraction of its call overhead.
    ``np.maximum`` returns its second argument when both compare equal, so ``x``
    goes second: -0.0 clipped at 0.0 stays -0.0, as ``np.clip`` keeps it."""
    return np.minimum(hi, np.maximum(lo, x))


def _ramp(idx: np.ndarray, burn_in: int, ramp: int) -> np.ndarray:
    return _clip((idx - float(burn_in)) / ramp, 0.0, 1.0)  # float(): a burn-in past int64 too


def _before(x: np.ndarray) -> np.ndarray:
    """Sum of the entries strictly before each position, along the last axis,
    accumulated as ``np.cumsum`` does: bools and ints in int64."""
    out = np.empty(x.shape, dtype=np.int64 if x.dtype.kind in "bi" else x.dtype)
    out[..., :1] = 0
    np.add.accumulate(x[..., :-1], axis=-1, dtype=out.dtype, out=out[..., 1:])
    return out


def _payout(arm, lam, p: float = 0.5) -> np.ndarray:
    """Multiplier of wager ``lam`` on arm 1 (``WealthLedger.bet``): fair when P(arm 1) = p."""
    return np.where(arm == 1, lam / p, (1.0 - lam) / (1.0 - p))


def _rate_gap(arm, outcome, burn_in, ramp):
    """(wager 0.5 +- 0.5 c (rate1 - rate0) on ``outcome``, earlier arm-1 and
    arm-0 counts): the rates are over earlier observations, 0.5 in an empty arm."""
    idx = np.arange(1, arm.shape[-1] + 1)
    n1 = _before(arm)
    n0 = idx - 1 - n1
    rate1 = np.where(n1 > 0, _before(arm * outcome) / np.maximum(n1, 1), 0.5)
    rate0 = np.where(n0 > 0, _before((1 - arm) * outcome) / np.maximum(n0, 1), 0.5)
    half = 0.5 * _ramp(idx, burn_in, ramp) * (rate1 - rate0)
    return np.where(outcome == 1, 0.5 + half, 0.5 - half), n1, n0


def row_outcomes(log_wealth: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(first crossing, final log-e) of each row of a (B, n) log-wealth block.

    Crossings are 1-based and NaN where a row never reaches the threshold.
    An empty row (n = 0) never crosses and ends at log-e 0.
    """
    rows = log_wealth.shape[0]
    if log_wealth.shape[-1] == 0:
        return np.full(rows, np.nan), np.zeros(rows)
    hit = log_wealth >= -np.log(alpha)
    crossing = np.where(hit.any(axis=-1), hit.argmax(axis=-1) + 1.0, np.nan)
    return crossing, log_wealth[:, -1].copy()


def first_crossing(log_wealth: np.ndarray, alpha: float) -> int | None:
    """1-based index of the first threshold crossing, or None."""
    crossing = row_outcomes(np.asarray(log_wealth)[None], alpha)[0][0]
    return None if np.isnan(crossing) else int(crossing)


def log_wealth(bets) -> np.ndarray:
    """Log-wealth after each observation of a ``(wager, multiplier)`` replay."""
    return np.cumsum(np.log(bets[1]), axis=-1)


def binary_bet(treatment, outcome, p: float = 0.5, burn_in: int = _BINARY.burn_in,
               ramp: int = _BINARY.ramp, fixed_dev: float | None = None):
    """Binary monitor replay; index i bets from counts over patients 1..i-1.

    ``fixed_dev`` switches to the prespecified-wager strategy: every patient
    (including the first) is bet at 0.5 + dev on events and 0.5 - dev on
    non-events, with no ramp.  A negative dev encodes a protective design
    direction.
    """
    # 0/1 labels as floats: every count below is exact, and the rates need no cast
    t = np.asarray(treatment, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if fixed_dev is None:
        lam = _rate_gap(t, y, burn_in, ramp)[0]
    else:
        lam = np.where(y == 1, 0.5 + fixed_dev, 0.5 - fixed_dev)
    lam = _clip(lam, WAGER_MIN, WAGER_MAX)
    mult = _payout(t, lam, p)
    if fixed_dev is None:  # the first patient never bets
        lam[..., :1] = np.nan
        mult[..., :1] = 1.0
    return lam, mult


def binary_log_wealth(*args, **kwargs) -> np.ndarray:
    return log_wealth(binary_bet(*args, **kwargs))


def deaths_bet(arms, burn_in: int = _DEATHS.burn_in, ramp: int = _DEATHS.ramp):
    """Deaths-only replay over an ordered stream of death arm labels."""
    a = np.asarray(arms, dtype=np.int64)
    idx = np.arange(1, a.shape[-1] + 1)
    tot_prev = idx - 1
    p_obs = np.where(tot_prev > 0, _before(a) / np.maximum(tot_prev, 1), 0.5)
    c = _ramp(idx, burn_in, ramp)
    lam = np.where((idx > burn_in) & (tot_prev > 0),
                   _clip(0.5 + c * (p_obs - 0.5), WAGER_MIN, WAGER_MAX),
                   0.5)
    return lam, _payout(a, lam)


def deaths_log_wealth(*args, **kwargs) -> np.ndarray:
    return log_wealth(deaths_bet(*args, **kwargs))


class SurvivalPrepared(NamedTuple):
    """Strategy-free part of a survival replay, per record in time order."""

    event: np.ndarray    # bool: the record is an event (censorings bet nothing)
    p_j: np.ndarray      # treated share of the risk set just before the record
    u: np.ndarray        # score increment: arm - p_j at events, 0 at censorings
    z_prev: np.ndarray   # cumulative score over earlier records


def _time_order(t: np.ndarray) -> np.ndarray:
    """``np.argsort(t, axis=-1, kind="stable")``, by numpy's faster default sort
    where that gives the same permutation: when every row's sorted times
    strictly increase.  A tie (``==``, so also -0.0 and 0.0) or a NaN falls
    back to the stable sort, which keeps tied records in stream order."""
    order = np.argsort(t, axis=-1)
    in_order = np.take_along_axis(t, order, axis=-1)
    if np.all(in_order[..., 1:] > in_order[..., :-1]):
        return order
    return np.argsort(t, axis=-1, kind="stable")


def survival_prepare(time, status, treatment, presorted: bool = False) -> SurvivalPrepared:
    """Sort the records by time and derive the risk sets and log-rank scores.

    Risk sets start from the full cohort, so the whole trial's records are
    required up front.  Each row of a block is its own trial, sorted and
    counted on its own.
    """
    t = np.asarray(time, dtype=float)
    s = np.asarray(status, dtype=np.int64)
    a = np.asarray(treatment, dtype=np.int64)
    if not presorted:
        order = _time_order(t)
        s, a = (np.take_along_axis(x, order, axis=-1) for x in (s, a))
    elif np.any(np.diff(t, axis=-1) < 0):
        raise ValueError("stream not sorted by time on study")
    risk1 = a.sum(axis=-1, keepdims=True) - _before(a)
    p_j = risk1 / np.arange(a.shape[-1], 0, -1)  # 0/1 arms: this record and all later are at risk
    u = np.where(s == 1, a - p_j, 0.0)
    return SurvivalPrepared(s == 1, p_j, u, _before(u))


def survival_bet(prep: SurvivalPrepared, burn_in: int = _SURVIVAL.burn_in,
                 ramp: int = _SURVIVAL.ramp, lambda_max: float = survival.DEFAULT_BET_CAP,
                 bet_rule: str = "fixed"):
    """Signed bet and payout at each record of a prepared survival trial.

    ``bet_rule="fixed"`` is the standard monitor: magnitude ``c * lambda_max``
    in the direction of the cumulative score.  ``bet_rule="half_kelly"``
    replaces the fixed magnitude with half the running score-based log-hazard
    estimate Z/V (V the sum of p(1-p) over past events), clamped to [-0.5, 0.5].
    The ramp index counts records, not events.
    """
    idx = np.arange(1, prep.u.shape[-1] + 1)
    c = _ramp(idx, burn_in, ramp)
    if bet_rule == "fixed":
        b = np.where(idx > burn_in, c * lambda_max * np.sign(prep.z_prev), 0.0)
    elif bet_rule == "half_kelly":
        info = np.where(prep.event, prep.p_j * (1.0 - prep.p_j), 0.0)
        v_prev = _before(info)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_hr_hat = np.where(v_prev > 0, prep.z_prev / np.maximum(v_prev, 1e-300), 0.0)
        b = np.where(idx > burn_in, c * _clip(0.5 * log_hr_hat, -0.5, 0.5), 0.0)
    else:
        raise ValueError(f"unknown bet_rule: {bet_rule!r}")
    return np.where(prep.event, b, np.nan), np.where(prep.event, 1.0 + b * prep.u, 1.0)


def survival_log_wealth(time, status, treatment, burn_in: int = _SURVIVAL.burn_in,
                        ramp: int = _SURVIVAL.ramp, lambda_max: float = survival.DEFAULT_BET_CAP,
                        bet_rule: str = "fixed",
                        presorted: bool = False) -> np.ndarray:
    """Survival replay; one entry per record (censored records bet nothing)."""
    return log_wealth(survival_bet(survival_prepare(time, status, treatment, presorted),
                                   burn_in, ramp, lambda_max, bet_rule))


def multistate_bet(good, arms, burn_in: int = _MULTISTATE.burn_in,
                   ramp: int = _MULTISTATE.ramp):
    """Transition-stream replay; both arms need history before bets start."""
    g = np.asarray(good, dtype=np.int64)
    a = np.asarray(arms, dtype=np.int64)
    lam, n1, n0 = _rate_gap(a, g, burn_in, ramp)
    bettable = (np.arange(1, a.shape[-1] + 1) > burn_in) & (n1 > 0) & (n0 > 0)
    lam = _clip(np.where(bettable, lam, 0.5), MS_WAGER_MIN, MS_WAGER_MAX)
    return lam, _payout(a, lam)


def multistate_log_wealth(*args, **kwargs) -> np.ndarray:
    return log_wealth(multistate_bet(*args, **kwargs))


class ContinuousPrepared(NamedTuple):
    """Strategy-free part of a continuous replay: one row per trial, one column
    per bet (observations ``max(2, burn_in + 1)`` to ``n``)."""

    n: int               # observations per trial
    treated: np.ndarray  # bool: the observation's arm is treatment
    g: np.ndarray        # squashed median/MAD residual of the observation
    d_hat: np.ndarray    # clamped running Cohen's d over earlier observations


def continuous_prepare(treatment, outcome,
                       burn_in: int = _CONTINUOUS.burn_in) -> ContinuousPrepared:
    """Residuals and effect estimates of a batch of same-length trials.

    ``treatment`` and ``outcome`` are (n_trials, n) matrices (a single trial
    may be passed 1-D); rows are independent trials.  Each row that bets takes
    every prefix's median and MAD from one call of the streaming monitor's
    kernel, ``continuous.center_scales``: the sorted outcomes before its
    first bet, then each later bet's past outcome insorted in turn, with the
    MAD window's search start carried from prefix to prefix inside the call
    (two probes settle most moves); a row with no bet makes no call.  The
    squash and the arm moments then take a few numpy passes over the whole
    block.  An arm whose raw sum of squares overflows has SD +inf and d 0, as
    in the monitor once its Welford sum overflows.
    """
    t = np.atleast_2d(np.asarray(treatment, dtype=np.int64))
    y = np.atleast_2d(np.asarray(outcome, dtype=float))
    m, n = y.shape
    # 1-based index of the first bet (i-1 >= burn_in); n + 1 when none is placed
    first = min(max(2, math.ceil(burn_in) + 1), n + 1)
    width = n - first + 1

    past = slice(first - 2, n - 1)  # cumulative index i - 2: the last past value

    def arm_stats(in_arm):
        """Each prefix's count, mean and SD of one arm's outcomes."""
        cnt = np.cumsum(in_arm, axis=-1)[:, past]
        arm_y = in_arm * y
        ssum = np.cumsum(arm_y, axis=-1)[:, past]
        sqsum = np.cumsum(arm_y * y, axis=-1)[:, past]
        mean = ssum / np.maximum(cnt, 1)
        var = (sqsum - cnt * mean * mean) / np.maximum(cnt - 1, 1)
        sd = np.where(np.isfinite(sqsum), np.sqrt(np.maximum(var, 0.0)), np.inf)
        return cnt, mean, np.where((cnt < 2) | (sd == 0.0), 1.0, sd)

    center = np.empty((m, width))
    scale = np.empty((m, width))
    for row in range(m if width else 0):  # one kernel call per row that bets
        ys = y[row].tolist()
        center[row], scale[row], _ = center_scales(sorted(ys[:first - 1]), ys[first - 1:n - 1])
    with np.errstate(over="ignore", invalid="ignore"):
        r = (y[:, first - 1:] - center) / scale
        g = r / (1.0 + np.abs(r))  # NaN past the float range; the engine refuses it
        n1, m1, sd1 = arm_stats(t)
        n0, m0, sd0 = arm_stats(1 - t)
        s_pooled = np.sqrt((sd1 * sd1 + sd0 * sd0) / 2.0)
        d_hat = _clip((m1 - m0) / s_pooled, -1.0, 1.0)
    d_hat = np.where((n1 == 0) | (n0 == 0) | np.isinf(s_pooled), 0.0, d_hat)
    return ContinuousPrepared(n, t[:, first - 1:] == 1, g, d_hat)


def continuous_bet(prep: ContinuousPrepared, p: float = 0.5,
                   burn_in: int = _CONTINUOUS.burn_in, ramp: int = _CONTINUOUS.ramp,
                   c_max: float = continuous.DEFAULT_C_MAX,
                   sign_only: bool = False):
    """The (n_trials, n) wager and multiplier matrices of prepared continuous trials.

    ``sign_only`` drops the magnitude of the running Cohen's d, keeping only
    its sign (the degraded strategy studied in the wage-asymmetry comparison).
    """
    first = prep.n + 1 - prep.g.shape[-1]  # as continuous_prepare placed it
    ramp_frac = _ramp(np.arange(first, prep.n + 1), burn_in, ramp)
    d_hat = np.sign(prep.d_hat) if sign_only else prep.d_hat
    lam = _clip(0.5 + ramp_frac * c_max * prep.g * d_hat, WAGER_MIN, WAGER_MAX)
    wager = np.full((prep.g.shape[0], prep.n), np.nan)
    mult = np.ones_like(wager)
    wager[:, first - 1:] = lam
    mult[:, first - 1:] = _payout(prep.treated, lam, p)
    return wager, mult


def continuous_log_wealth(treatment, outcome, p: float = 0.5,
                          burn_in: int = _CONTINUOUS.burn_in, ramp: int = _CONTINUOUS.ramp,
                          c_max: float = continuous.DEFAULT_C_MAX,
                          sign_only: bool = False) -> np.ndarray:
    """Continuous-monitor replay for a whole batch of same-length trials;
    returns the (n_trials, n) log-wealth matrix (see ``continuous_prepare``)."""
    return log_wealth(continuous_bet(continuous_prepare(treatment, outcome, burn_in),
                                     p, burn_in, ramp, c_max, sign_only))
