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

from .core import (FLOAT_MAX, RampSchedule, WealthLedger, apply_signed_bet, check_open_unit,
                   finite_float, shown)

DEFAULT_SCHEDULE = RampSchedule(burn_in=30, ramp=50)
DEFAULT_BET_CAP = 0.25


@dataclass(frozen=True, slots=True)
class SurvivalRecord:
    """One subject's follow-up outcome on the time-on-study clock."""

    time: float
    status: int  # 1 = event, 0 = censored
    arm: int

    def __post_init__(self) -> None:
        time = self.time
        if type(time) is not float:  # an int is stored as its float, which a checkpoint encodes
            time = finite_float(time)
            if time is not None:
                object.__setattr__(self, "time", time)
        if time is None or not 0.0 <= time <= FLOAT_MAX:
            raise ValueError(f"time on study must be finite and >= 0, got {shown(self.time)}")
        if self.status not in (0, 1):
            raise ValueError(f"status must be 0 or 1, got {self.status}")
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm}")


@dataclass
class SurvivalState:
    """Streaming state for the survival monitor; one instance per trial.

    Risk sets start at the full per-arm cohort sizes, which must be known
    up front, and shrink by one for every record processed.  A record for
    an arm whose risk set is already empty is refused: the cohort size was
    wrong, so no later risk proportion, and no payout, would be fair.
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

        Events settle the signed bet and then add their score increment to
        the cumulative log-rank score; censorings only shrink the risk set.
        """
        if record.time < self.last_time:
            raise ValueError(
                f"stream not sorted: time {record.time} after {self.last_time}"
            )
        if (self.risk_trt if record.arm == 1 else self.risk_ctrl) == 0:
            arm = "treated" if record.arm == 1 else "control"
            raise ValueError(f"{arm} risk set is exhausted: more {arm} records than "
                             f"the {arm} cohort size")
        j = self.records_seen + 1
        if record.status == 1:
            b = self.bet(j)
            u = record.arm - self.risk_proportion()  # log-rank score increment
            apply_signed_bet(self.ledger, b, u, j)
            self.cum_z += u
        if record.arm == 1:
            self.risk_trt -= 1
        else:
            self.risk_ctrl -= 1
        self.records_seen = j
        self.last_time = record.time

