"""Time-to-event monitor: risk-set betting on the log-rank score.

Records (events and censorings) are consumed in nondecreasing time-on-study
order.  At each event, the treated fraction of the risk set gives the null
probability that the event is a treated patient; the score increment is the
observed indicator minus that probability.  The bet has fixed magnitude and
adaptive direction: it follows the sign of the cumulative score, scaled by
the ramp and capped at ``lambda_max``, so every payout lies within
``1 +/- lambda_max`` and wealth can never be wiped out by one event.
Censored records shrink the risk set without touching wealth.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

from .core import (FLOAT_MAX, RampSchedule, WealthLedger, check_open_unit, finite,
                   finite_float, shown)

DEFAULT_SCHEDULE = RampSchedule(burn_in=30, ramp=50)
DEFAULT_BET_CAP = 0.25


class SurvivalRecord(NamedTuple):
    """One subject's follow-up outcome on the time-on-study clock, unchecked:
    ``SurvivalState.step`` checks each field as it consumes the record."""

    time: float
    status: int  # 1 = event, 0 = censored
    arm: int


@dataclass
class SurvivalState:
    """Streaming state for the survival monitor; one instance per trial.

    Risk sets start at the full per-arm cohort sizes, which must be known
    up front, and shrink by one for every record processed.  A record for
    an arm whose risk set is already empty is refused: the cohort size was
    wrong, so no later risk proportion, and no payout, would be fair.

    No run holds a non-finite score (each increment lies in (-1, 1)) or a
    last time that is NaN or ``inf`` (it is -inf before the first record),
    so a state given one is refused.
    """

    risk_trt: int
    risk_ctrl: int
    sched: RampSchedule = DEFAULT_SCHEDULE
    lambda_max: float = DEFAULT_BET_CAP
    alpha: InitVar[float] = 0.05  # constructor inputs of a fresh ledger; not saved
    record_steps: InitVar[bool] = False
    cum_z: float = 0.0
    records_seen: int = 0
    last_time: float = -math.inf
    ledger: WealthLedger = None  # type: ignore[assignment]

    def __post_init__(self, alpha: float, record_steps: bool) -> None:
        if self.risk_trt < 0 or self.risk_ctrl < 0:
            raise ValueError("risk-set sizes must be >= 0")
        check_open_unit("lambda_max", self.lambda_max)
        if not finite(self.cum_z):
            raise ValueError(f"cum_z must be finite, got {self.cum_z!r}")
        if not self.last_time <= FLOAT_MAX:
            raise ValueError(f"last_time must be finite or -inf, got {self.last_time!r}")
        if self.ledger is None:
            self.ledger = WealthLedger(alpha, record_steps)

    def risk_proportion(self) -> float:
        """Treated fraction of the current risk set (0.5 when it is empty)."""
        total = self.risk_trt + self.risk_ctrl
        return self.risk_trt / total if total > 0 else 0.5

    def bet(self, j: int) -> float:
        """Signed bet for record index ``j``: ramp * cap * sign of the score so far."""
        if j <= self.sched.burn_in:
            return 0.0
        c = self.sched.coefficient(j)
        sign = 0.0 if self.cum_z == 0.0 else math.copysign(1.0, self.cum_z)
        return c * self.lambda_max * sign

    def step(self, record: SurvivalRecord) -> None:
        """Consume the next time-ordered record.

        Events settle the signed bet ``b`` at payout ``1 + b * u`` and then
        add their score increment ``u`` to the cumulative log-rank score
        (``|b| < 1`` and ``|u| < 1`` keep the payout positive); censorings
        only shrink the risk set.  Every check of a record is here.
        """
        time, status, arm = record
        if type(time) is not float or not 0.0 <= time <= FLOAT_MAX:
            x = finite_float(time)  # None for a bool, NaN, an infinity or a huge int
            if x is None or x < 0.0:
                raise ValueError(f"time on study must be finite and >= 0, "
                                 f"got {shown(time if x is None else x)}")
            time = x  # an int as its float, which a checkpoint encodes
        if status not in (0, 1):
            raise ValueError(f"status must be 0 or 1, got {status}")
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        if time < self.last_time:
            raise ValueError(f"stream not sorted: time {time} after {self.last_time}")
        if (self.risk_trt if arm == 1 else self.risk_ctrl) == 0:
            name = "treated" if arm == 1 else "control"
            raise ValueError(f"{name} risk set is exhausted: more {name} records than "
                             f"the {name} cohort size")
        j = self.records_seen + 1
        if status == 1:
            b = self.bet(j)
            u = arm - self.risk_proportion()  # log-rank score increment
            self.ledger.apply(b, 1.0 + b * u, j)
            self.cum_z += u
        if arm == 1:
            self.risk_trt -= 1
        else:
            self.risk_ctrl -= 1
        self.records_seen = j
        self.last_time = time

