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

The count kernels (binary, deaths, multistate) read their 0/1 labels as
floats, so every count is exact, and work in the arrays they already hold:
``_rate_gap`` and ``deaths_bet`` divide inside their prefix-sum arrays and
then set the positions with an empty arm to 0.5, an outcome's sign is one
multiply before ``+= 0.5`` (``0.5 - h`` is ``0.5 + (-h)`` in IEEE
arithmetic), ``_clip`` clamps in place and ``log_wealth`` sums its logs in
place.  Every array is the one the plain ``np.where`` forms give, bit for
bit (``tests/oracles.py`` keeps those forms).

A survival block is put in time order by one ``np.sort`` of int64 keys, each
a time's bits with its two low mantissa bits replaced by (status, arm), and
status and arm are read back from the sorted keys.  That is each row's
stable order when every time is finite and >= +0.0 (nonnegative floats
order as their bits), every status and arm is 0 or 1, and no two times of a
row tie once those two bits are dropped (``key >> 2`` strictly increases
along each sorted row).  Any other block falls back to a stable argsort.
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


def _clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Float array ``x`` clamped in place to ``np.clip(x, lo, hi)``, bit for bit,
    at a fraction of its call overhead.  ``np.maximum`` returns its second
    argument when both compare equal, so ``x`` goes second: -0.0 clipped at
    0.0 stays -0.0, as ``np.clip`` keeps it."""
    return np.minimum(hi, np.maximum(lo, x, out=x), out=x)


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
    with np.errstate(over="ignore"):  # a p near 0 or 1 overflows the arm it makes unlikely
        return np.where(arm == 1, lam / p, (1.0 - lam) / (1.0 - p))


def _rate_gap(arm, outcome, burn_in, ramp):
    """(wager 0.5 +- 0.5 c (rate1 - rate0) on ``outcome``, the positions with no
    earlier arm-1 observation, those with no earlier arm-0 one): the rates are
    over earlier observations, 0.5 in an empty arm.  ``arm`` and ``outcome``
    are 0/1 floats, so every count is exact and each rate is divided in place."""
    idx = np.arange(1, arm.shape[-1] + 1)
    n1 = _before(arm)
    n0 = (idx - 1.0) - n1
    rate1 = _before(arm * outcome)
    rate0 = _before(outcome)
    rate0 -= rate1  # earlier arm-0 events
    with np.errstate(invalid="ignore"):  # 0/0 in an empty arm, overwritten below
        rate1 /= n1
        rate0 /= n0
    empty1, empty0 = n1 == 0, n0 == 0
    np.copyto(rate1, 0.5, where=empty1)
    np.copyto(rate0, 0.5, where=empty0)
    rate1 -= rate0
    rate1 *= 0.5 * _ramp(idx, burn_in, ramp)
    rate1 *= 2.0 * outcome - 1.0  # 0.5 - h is 0.5 + (-h), bit for bit
    rate1 += 0.5
    return rate1, empty1, empty0


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
    out = np.log(bets[1])
    return np.cumsum(out, axis=-1, out=out)


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
    _clip(lam, WAGER_MIN, WAGER_MAX)
    mult = _payout(t, lam, p)
    if fixed_dev is None:  # the first patient never bets
        lam[..., :1] = np.nan
        mult[..., :1] = 1.0
    return lam, mult


def binary_log_wealth(*args, **kwargs) -> np.ndarray:
    return log_wealth(binary_bet(*args, **kwargs))


def deaths_bet(arms, burn_in: int = _DEATHS.burn_in, ramp: int = _DEATHS.ramp):
    """Deaths-only replay over an ordered stream of death arm labels."""
    a = np.asarray(arms, dtype=float)  # 0/1 labels: every count is exact
    idx = np.arange(1, a.shape[-1] + 1)
    lam = _before(a)
    lam[..., 1:] /= idx[:-1]  # the treated share of earlier deaths
    lam -= 0.5
    lam *= _ramp(idx, burn_in, ramp)
    lam += 0.5
    _clip(lam, WAGER_MIN, WAGER_MAX)  # 0.5 wherever the ramp is still 0
    lam[..., :1] = 0.5  # the first death never bets
    return lam, _payout(a, lam)


def deaths_log_wealth(*args, **kwargs) -> np.ndarray:
    return log_wealth(deaths_bet(*args, **kwargs))


class SurvivalPrepared(NamedTuple):
    """Strategy-free part of a survival replay, per record in time order."""

    event: np.ndarray    # bool: the record is an event (censorings bet nothing)
    p_j: np.ndarray      # treated share of the risk set just before the record
    u: np.ndarray        # score increment: arm - p_j at events, 0 at censorings
    z_prev: np.ndarray   # cumulative score over earlier records


_INF_BITS = np.float64(np.inf).view(np.int64)


def _packed_order(t: np.ndarray, s: np.ndarray, a: np.ndarray):
    """(status, arm) of each row's records in stable time order, read back from
    one ``np.sort`` of int64 keys: a time's bits with the two low mantissa
    bits replaced by (status, arm).  None where that sort need not give the
    stable order, so the caller sorts stably instead: a label outside {0, 1},
    a time that is not finite and >= +0.0 (-0.0 has the sign bit), or two
    times of a row that tie once those two bits are dropped."""
    if s.view(np.uint64).max(initial=0) > 1 or a.view(np.uint64).max(initial=0) > 1:
        return None
    key = t.view(np.int64) & -4  # nonnegative floats order as their bits
    key |= s << 1
    key |= a
    key.sort(axis=-1)
    time_bits = key >> 2
    if not ((key[..., :1] >= 0).all() and (key[..., -1:] < _INF_BITS).all()
            and (time_bits[..., 1:] > time_bits[..., :-1]).all()):
        return None
    return (key & 2).astype(bool), key & 1


def survival_prepare(time, status, treatment, presorted: bool = False) -> SurvivalPrepared:
    """Sort the records by time and derive the risk sets and log-rank scores.

    Risk sets start from the full cohort, so the whole trial's records are
    required up front.  Each row of a block is its own trial, sorted (stable
    on tied times) and counted on its own.  A record whose time on study is
    not finite, which the monitor refuses, has a NaN score, so its replay
    ends at a NaN log-wealth.
    """
    t = np.asarray(time, dtype=float)
    s = np.asarray(status, dtype=np.int64)
    a = np.asarray(treatment, dtype=np.int64)
    packed = None if presorted else _packed_order(t, s, a)
    if packed is not None:
        event, a = packed  # and every time is finite
    else:
        if not presorted:
            order = np.argsort(t, axis=-1, kind="stable")
            t, s, a = (np.take_along_axis(x, order, axis=-1) for x in (t, s, a))
        else:  # the stable sort puts NaNs last: refuse a descent or a NaN before a number
            nan = np.isnan(t) if np.isnan(np.max(t, initial=-np.inf)) else None
            if (t[..., 1:] < t[..., :-1]).any() or (
                    nan is not None and (nan[..., :-1] > nan[..., 1:]).any()):
                raise ValueError("stream not sorted by time on study")
        event = s == 1
    risk1 = a.sum(axis=-1, keepdims=True) - _before(a)
    p_j = risk1 / np.arange(a.shape[-1], 0, -1)  # 0/1 arms: this record and all later are at risk
    u = np.where(event, a - p_j, 0.0)
    if packed is None and not np.isfinite(t).all():
        u = np.where(np.isfinite(t), u, np.nan)
    return SurvivalPrepared(event, p_j, u, _before(u))


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
    # a censoring's score is 0, so its payout is exactly 1, or NaN with a NaN score
    return np.where(prep.event, b, np.nan), 1.0 + np.where(prep.event, b, 0.0) * prep.u


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
    g = np.asarray(good, dtype=float)  # 0/1 labels, as binary_bet reads them
    a = np.asarray(arms, dtype=float)
    lam, empty1, empty0 = _rate_gap(a, g, burn_in, ramp)  # 0.5 wherever the ramp is still 0
    np.copyto(lam, 0.5, where=np.logical_or(empty1, empty0, out=empty1))
    _clip(lam, MS_WAGER_MIN, MS_WAGER_MAX)
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
