"""Deaths-only monitor: full-Kelly plug-in betting on the arm label of each death.

With 1:1 allocation and no treatment effect, each death is equally likely to
carry either arm label, so the stream of death labels is a fair coin.  The
monitor tracks the running fraction of treatment deaths and, once ramped,
wagers that fraction directly (the full Kelly bet for a coin).  Survivors are
never observed: the only input is the ordered stream of arms on deaths.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

from .core import RampSchedule, WealthLedger, clamp_wager

DEFAULT_SCHEDULE = RampSchedule(burn_in=30, ramp=50)


def death_coin(p_ctrl: float, p_trt: float) -> float:
    """P(death came from treatment | a death occurred) under 1:1 allocation."""
    if not (0.0 <= p_ctrl <= 1.0 and 0.0 <= p_trt <= 1.0):
        raise ValueError("mortality rates must lie in [0,1]")
    if p_ctrl + p_trt <= 0.0:
        raise ValueError("no deaths possible: both mortality rates are zero")
    return p_trt / (p_trt + p_ctrl)


def expected_deaths(n_patients: int, p_ctrl: float, p_trt: float) -> int:
    """Expected death count for a 1:1 trial, rounded up."""
    if n_patients < 0:
        raise ValueError("n_patients must be >= 0")
    return math.ceil(n_patients / 2 * (p_ctrl + p_trt))


@dataclass
class DeathsState:
    """Streaming state for deaths-only monitoring; one instance per trial."""

    sched: RampSchedule = DEFAULT_SCHEDULE
    alpha: InitVar[float] = 0.05  # constructor inputs of a fresh ledger; not saved
    record_steps: InitVar[bool] = False
    d_trt: int = 0
    d_ctrl: int = 0
    ledger: WealthLedger = None  # type: ignore[assignment]

    def __post_init__(self, alpha: float, record_steps: bool) -> None:
        if self.ledger is None:
            self.ledger = WealthLedger(alpha, record_steps)

    @property
    def total(self) -> int:
        return self.d_trt + self.d_ctrl

    def p_hat(self) -> float:
        """Running fraction of deaths from the treatment arm (0.5 before any)."""
        return self.d_trt / self.total if self.total > 0 else 0.5

    def wager(self, i: int) -> float:
        """Wager for death index ``i`` from counts of deaths 1..i-1."""
        total = self.d_trt + self.d_ctrl
        if i > self.sched.burn_in and total > 0:
            c = self.sched.coefficient(i)
            return clamp_wager(0.5 + c * (self.d_trt / total - 0.5))  # p_hat()
        return 0.5

    def step(self, arm: int) -> None:
        """Consume one death: bet on its arm at the fair-coin null, then count it.

        The ledger refuses an arm other than 0 or 1 before anything changes.
        """
        i = self.d_trt + self.d_ctrl + 1
        self.ledger.bet(self.wager(i), arm, 0.5, i)
        if arm == 1:
            self.d_trt += 1
        else:
            self.d_ctrl += 1

    def final_rr(self) -> float:
        """Relative risk implied by the final death split, guarded at the clamp edges."""
        p = self.p_hat()
        if p <= 0.001:
            return 0.0
        if p >= 0.999:
            return math.inf
        return p / (1.0 - p)
