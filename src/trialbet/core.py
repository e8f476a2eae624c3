"""Variant-agnostic wealth ledger, ramp schedule, clamping and crossing logic.

Every monitor in this package is the same game wearing different clothes:
before each observation's arm label is revealed, a wager is chosen from past
data only; the wealth is multiplied by a payout whose conditional expectation
is exactly 1 when the arm label is pure randomization noise.  Wealth starting
at 1 is therefore a nonnegative martingale under the null, and by Ville's
inequality the probability it ever reaches ``1/alpha`` is at most ``alpha``.
Crossing that threshold is the (anytime-valid) rejection rule.

Wealth is tracked in log space: long null streams multiply thousands of
factors slightly below 1 and would underflow a plain product.  Exported
e-values exponentiate (saturating to ``inf`` past the float range, where the
log stays exact); the threshold test compares against ``log(1/alpha)``.  A
bet is settled by the ledger alone (:meth:`WealthLedger.bet` for a two-sided
wager, :meth:`WealthLedger.apply` for any payout), and settling returns
nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, InitVar, dataclass

# Wager clamp shared by the two-sided monitors (binary, deaths, continuous).
# Keeps every payout strictly positive so log-wealth stays finite.
WAGER_MIN = 0.001
WAGER_MAX = 0.999

FLOAT_MAX = sys.float_info.max


def finite(v) -> bool:
    """Whether the number ``v`` is a finite float or an int within the float
    range.  Unlike ``math.isfinite``, an int past that range gives False rather
    than raising OverflowError."""
    return abs(v) <= FLOAT_MAX


def finite_float(v) -> float | None:
    """The number ``v`` as a float when it is finite (see :func:`finite`), so a
    state stores only what a checkpoint encodes; None when it is not, and for
    a bool, Python's or numpy's (a bool is no number)."""
    if type(v) is float:  # the case of every event, first
        return v if abs(v) <= FLOAT_MAX else None
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
    if type(v) is bool or np is not None and isinstance(v, np.bool_):
        return None
    return float(v) if abs(v) <= FLOAT_MAX else None


def shown(v) -> str:
    """``repr(v)``, except that an int too long for Python to write in decimal
    is described by its bit length."""
    try:
        return repr(v)
    except ValueError:
        return f"an int of {v.bit_length()} bits"


@dataclass(frozen=True, slots=True)
class RampSchedule:
    """Betting-strength schedule: flat zero for ``burn_in`` observations,
    then a linear rise to 1 over ``ramp`` further observations."""

    burn_in: int
    ramp: int

    def __post_init__(self) -> None:
        for key, least in (("burn_in", 0), ("ramp", 1)):
            value = getattr(self, key)
            # a bool is no count: ``true`` would otherwise run as 1
            if isinstance(value, bool) or not value >= least:
                raise ValueError(f"{key} must be >= {least}, got {value!r}")
            if not finite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")

    def coefficient(self, i: int) -> float:
        """Betting strength in [0, 1] at 1-based observation index ``i``."""
        if i < 1:
            raise ValueError(f"observation index must be >= 1, got {i}")
        c = (i - self.burn_in) / self.ramp
        c = c if c > 0.0 else 0.0  # max(0.0, c) and min(1.0, c), without the calls
        return c if c < 1.0 else 1.0


def _exp_wealth(log_wealth: float) -> float:
    """Wealth from log-wealth; ``inf`` once it exceeds the float range."""
    try:
        return math.exp(log_wealth)
    except OverflowError:
        return math.inf


def check_open_unit(name: str, value: float) -> None:
    """Refuse a setting outside the open interval (0, 1), NaN included."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0,1), got {value}")


def clamp_wager(raw: float, lo: float = WAGER_MIN, hi: float = WAGER_MAX) -> float:
    """Clamp a raw wager into [lo, hi]; identity on interior values."""
    if not -FLOAT_MAX <= raw <= FLOAT_MAX:  # NaN fails too
        raise ValueError(f"invalid wager: {raw!r}")
    m = raw if raw > lo else lo  # max(lo, raw), then min(hi, m), without the calls
    return m if m < hi else hi


@dataclass(frozen=True, slots=True)
class WealthStep:
    """One ledger row: the bet placed at ``index`` and its realized payout."""

    index: int          # 1-based observation index within the stream
    wager: float        # two-sided fraction in [0,1], or signed bet for survival
    multiplier: float   # realized payout factor, > 0
    log_wealth: float   # cumulative log wealth after this step
    crossed: bool       # threshold reached at or before this step

    @property
    def wealth(self) -> float:
        return _exp_wealth(self.log_wealth)


class _LedgerSlots:
    """Declares the two ``WealthLedger`` attributes that are no fields, so no
    checkpoint saves them: a slotted dataclass may declare no slot of its own."""

    __slots__ = ("steps", "log_threshold")


@dataclass(slots=True)
class WealthLedger(_LedgerSlots):
    """Cumulative wealth of one betting stream.

    Single-writer: one ledger per monitored stream.  ``crossed`` latches at
    the first step whose wealth reaches ``1/alpha`` and never unlatches, even
    if wealth later falls (anytime-valid semantics).

    Every field is saved state, and ``log_wealth`` is finite: no run reaches
    an infinite or NaN one.  ``record_steps`` is a constructor input: with it,
    ``steps`` lists each settled bet's ``WealthStep``; else it is None.
    ``log_threshold``, ``log(1/alpha)``, is read on every bet and set once:
    alpha is fixed for the ledger's life.
    """

    alpha: float = 0.05
    record_steps: InitVar[bool] = False
    log_wealth: float = 0.0
    n_steps: int = 0
    crossed: bool = False
    crossed_at: int | None = None

    def __post_init__(self, record_steps: bool) -> None:
        check_open_unit("alpha", self.alpha)
        if not finite(self.log_wealth):
            raise ValueError(f"log_wealth must be finite, got {self.log_wealth!r}")
        self.steps: list[WealthStep] | None = [] if record_steps else None
        self.log_threshold = -math.log(self.alpha)

    @property
    def threshold(self) -> float:
        return 1.0 / self.alpha

    @property
    def wealth(self) -> float:
        return _exp_wealth(self.log_wealth)

    def apply(self, wager: float, multiplier: float, index: int) -> None:
        """Multiply wealth by a realized payout and update the crossed latch."""
        if not 0.0 < multiplier <= FLOAT_MAX:  # NaN fails too
            raise ValueError(f"multiplier must be positive and finite, got {multiplier}")
        log_wealth = self.log_wealth = self.log_wealth + math.log(multiplier)
        self.n_steps += 1
        if log_wealth >= self.log_threshold and not self.crossed:
            self.crossed = True
            self.crossed_at = index
        if self.steps is not None:
            self.steps.append(WealthStep(index, wager, multiplier, log_wealth, self.crossed))

    def bet(self, wager: float, arm: int, p: float, index: int) -> None:
        """Settle a two-sided wager against the revealed arm.

        ``wager`` is the fraction staked on arm 1 (allocation probability
        ``p``); the payout is ``wager/p`` if arm 1 was revealed, else
        ``(1-wager)/(1-p)``.
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"allocation probability must be in (0,1), got {p}")
        if arm == 1:
            self.apply(wager, wager / p, index)
        elif arm == 0:
            self.apply(wager, (1.0 - wager) / (1.0 - p), index)
        else:
            raise ValueError(f"arm must be 0 or 1, got {arm}")


@dataclass(slots=True)
class MonitorState:
    """Base of every monitor state: the ledger that settles its bets, built from the
    keyword-only ``alpha`` and ``record_steps`` (not saved) unless a resume passes one.

    The states are slotted, so an attribute no class declares is refused.  A
    subclass's ``__post_init__`` calls this one as ``MonitorState.__post_init__(self,
    ...)``: a zero-argument ``super()`` fails in a slotted dataclass (Python 3.10-3.13)."""

    _: KW_ONLY  # so a state's own fields, required ones too, may follow
    alpha: InitVar[float] = 0.05
    record_steps: InitVar[bool] = False
    ledger: WealthLedger = None  # type: ignore[assignment]

    def __post_init__(self, alpha: float, record_steps: bool) -> None:
        if self.ledger is None:
            self.ledger = WealthLedger(alpha, record_steps)
