"""Continuous-outcome monitor: doubly adaptive wagers from robust standardization.

Each new outcome is standardized against the median and raw MAD of all past
outcomes, squashed into (-1, 1), and multiplied by the running clamped
Cohen's d between arms.  The squash term says how unusual this outcome is;
Cohen's d says which arm unusual outcomes have favored so far.  Their product
(scaled by the ramp and a cap ``c_max``) sets the tilt of the wager away
from 0.5.  No bets are placed until ``burn_in`` past outcomes exist; wealth
is carried forward unchanged through that window.

The past outcomes are kept as a sorted multiset, so the median is an index
lookup and the MAD a search for the window of outcomes nearest the median
(:func:`center_scales`).  The search gallops from where the previous
prefix's window started, its first two probes settling the commonest moves,
and an even count reads its second middle distance off that window's
neighbours, so one event costs O(1) comparisons in the typical case
(O(log n) at worst) plus the O(n) memmove of ``bisect.insort``.  The batch
replay in ``simlab.batch`` walks each trial's prefixes in one kernel call,
and the streaming monitor makes one call per wager, carrying the start
between calls; both return the same floats as ``np.median`` over the
unsorted history whatever the start.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

from .core import (MonitorState, RampSchedule, check_open_unit, clamp_wager, finite_float,
                   shown)

DEFAULT_SCHEDULE = RampSchedule(burn_in=50, ramp=100)
DEFAULT_C_MAX = 0.6


def center_scales(s, arrivals=(), start: int = 0) -> tuple[list[float], list[float], int]:
    """Median and raw MAD (no consistency constant) of the past outcomes
    ``s``, then of ``s`` after each of ``arrivals`` is insorted into it in
    turn, and the index the last MAD search stopped at, to pass back as
    ``start``.

    ``s`` must be a non-empty ascending list of floats.  The median is the
    middle element (the mean of the middle pair for an even count).  The MAD
    is the median of ``|x - med|``, read off the window ``s[a:a+j]`` of the
    ``j = len(s) - len(s) // 2`` outcomes nearest the median without
    building a distance.  Distances fall then rise along ``s``, so the
    predicate ``s[a+j-1] - med >= med - s[a]`` (the right end bounds the
    window) is monotone in ``a``, and its first true ``a`` is the same from
    any search start.  Each search starts where the last one stopped (the
    first at the non-negative hint ``start``) and gallops (steps 1, 2, 4,
    ... outward, then bisection); its first two probes, at the start and at
    one neighbour, settle the commonest moves outright: the window stayed,
    or moved one step right.  O(log n) at worst: shuffled ties can move the
    window by about n/4 at once.  At that ``a`` the right end bounds the
    window, one step earlier the left end did, and the j-th distance is the
    smaller of the two.  An even count averages in the (j+1)-th distance:
    the nearer of that window's two outside neighbours.  ``med - x`` and
    ``x - med`` are exact negatives in IEEE arithmetic, so each distance
    equals ``abs(x - med)``, and both results equal ``np.median`` of the
    unsorted history bit for bit, whatever ``start`` was.

    A zero or non-finite MAD falls back to scale 1 so standardization never
    degenerates (constant early histories are common).
    """
    h = len(s)
    if h == 0:
        raise ValueError("insufficient history: need at least one past outcome")
    meds, mads = [], []
    inf = math.inf
    a, k, todo = start, 0, len(arrivals)
    while True:
        mid = h // 2
        w = h - mid - 1  # the window's last index minus its first
        med = s[mid] if h % 2 else (s[mid - 1] + s[mid]) / 2
        # The first true a is in [lo, hi]; mid + 1 means none is, which happens
        # only when the middle pair's sum overflows.  Probe the start, then its
        # left neighbour if the predicate held there, else its right one.
        a = a if a < mid else mid
        if s[a + w] - med >= med - s[a]:
            if a and s[a + w - 1] - med >= med - s[a - 1]:
                lo, hi, a = 0, a - 1, a - 3
            else:
                lo = hi = a  # the window stayed
        elif a < mid and not s[a + w + 1] - med >= med - s[a + 1]:
            lo, hi, a = a + 2, mid + 1, a + 3
        else:
            lo = hi = a + 1  # it moved one step right (or past mid: none is true)
        step = 4  # the gallop's steps 1 and 2 were the probes
        while lo < hi:
            if not lo <= a < hi:
                a = (lo + hi) // 2
            if s[a + w] - med >= med - s[a]:
                hi, a = a, a - step
            else:
                lo, a = a + 1, a + step
            step += step
        if lo <= mid and (lo == 0 or s[lo + w] - med <= med - s[lo - 1]):
            b, mad = lo, s[lo + w] - med
        else:
            b, mad = lo - 1, med - s[lo - 1]
        if not h % 2:
            if b == 0 or (b < mid and s[b + mid] - med <= med - s[b - 1]):
                mad = (mad + (s[b + mid] - med)) / 2
            else:
                mad = (mad + (med - s[b - 1])) / 2
        meds.append(med)
        mads.append(mad if 0.0 < mad < inf else 1.0)
        if k == todo:
            return meds, mads, lo
        insort(s, arrivals[k])
        a, k, h = lo, k + 1, h + 1


def _finite_outcomes(values) -> list[float]:
    """``values`` sorted, each as a float; a NaN, an infinity or a bool raises
    ValueError."""
    out = sorted(values)
    floats = [finite_float(v) for v in out]  # an int is stored as its float
    for v, x in zip(out, floats):
        if x is None:
            raise ValueError(f"past outcomes must be finite numbers, got {shown(v)}")
    return floats


def squash(r: float) -> float:
    """Map a standardized residual into (-1, 1); odd and strictly monotone."""
    if not math.isfinite(r):
        raise ValueError(f"residual must be finite, got {r!r}")
    return r / (1.0 + abs(r))


@dataclass(slots=True)
class _ArmMoments:
    """Welford accumulator: numerically stable running mean and variance."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, y: float) -> None:
        self.n += 1
        delta = y - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (y - self.mean)

    def sd(self) -> float:
        """Sample standard deviation; 1.0 when undefined (n < 2) or zero."""
        if self.n < 2:
            return 1.0
        var = self.m2 / (self.n - 1)
        if var <= 0.0:
            return 1.0
        return math.sqrt(var)


class _SearchStart(MonitorState):
    """Declares ``ContinuousState.mad_start``, which is no field: a slotted
    dataclass may declare no slot of its own."""

    __slots__ = ("mad_start",)


@dataclass(slots=True)
class ContinuousState(_SearchStart):
    """Streaming state for the continuous monitor; one instance per trial."""

    sched: RampSchedule = DEFAULT_SCHEDULE
    c_max: float = DEFAULT_C_MAX
    p: float = 0.5
    values: list[float] = field(default_factory=list)  # past outcomes, sorted
    trt: _ArmMoments = field(default_factory=_ArmMoments)
    ctrl: _ArmMoments = field(default_factory=_ArmMoments)

    def __post_init__(self, alpha: float, record_steps: bool) -> None:
        check_open_unit("p", self.p)
        check_open_unit("c_max", self.c_max)
        if self.trt.n < 0 or self.ctrl.n < 0:  # a resume takes them from its checkpoint
            raise ValueError(f"arm counts must be >= 0, got {self.trt.n} and {self.ctrl.n}")
        self.values = _finite_outcomes(self.values)  # arrival-order checkpoints resume bit-exactly
        self.mad_start = 0  # the MAD window's search start; not a field, so never saved
        MonitorState.__post_init__(self, alpha, record_steps)

    @property
    def i(self) -> int:
        return len(self.values)

    def cohens_d(self) -> float:
        """Running standardized mean difference, clamped to [-1, 1].

        Degenerate cases follow the plug-in conventions: an empty arm gives
        d = 0; an undefined or zero arm SD is replaced by 1.
        """
        if self.trt.n == 0 or self.ctrl.n == 0:
            return 0.0
        sd_t, sd_c = self.trt.sd(), self.ctrl.sd()
        s_pooled = math.sqrt((sd_t * sd_t + sd_c * sd_c) / 2.0)
        d = (self.trt.mean - self.ctrl.mean) / s_pooled
        d = d if d > -1.0 else -1.0  # max(-1.0, d), then min(1.0, d), without the calls
        return d if d < 1.0 else 1.0

    def wager(self, y: float, i: int) -> float:
        """Wager for outcome ``y`` arriving at index ``i`` (past data only)."""
        if i < 2 or (i - 1) < self.sched.burn_in:
            return 0.5
        (med,), (scale,), self.mad_start = center_scales(self.values, (), self.mad_start)
        g = squash((y - med) / scale)
        ramp_frac = self.sched.coefficient(i)
        lam = 0.5 + ramp_frac * self.c_max * g * self.cohens_d()
        return clamp_wager(lam)

    def step(self, y: float, arm: int) -> None:
        """Consume one (outcome, arm) pair: bet if past burn-in, then record it."""
        x = finite_float(y)
        if x is None:
            raise ValueError(f"outcome must be finite, got {shown(y)}")
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        i = len(self.values) + 1
        if i >= 2 and (i - 1) >= self.sched.burn_in:
            self.ledger.bet(self.wager(x, i), arm, self.p, i)
        insort(self.values, x)
        (self.trt if arm == 1 else self.ctrl).add(x)
