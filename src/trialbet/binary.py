"""Binary-outcome monitor: adaptive half-Kelly wagers on each patient's arm.

After a patient's event status is known but before their arm is revealed, the
wager tilts away from 0.5 by half the running event-rate difference between
arms, scaled by the ramp.  Events lean toward the arm where events have been
more common so far; non-events lean the other way.  The first patient places
no bet (there is no history to learn from).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .core import RampSchedule, WealthLedger, check_open_unit, clamp_wager

DEFAULT_SCHEDULE = RampSchedule(burn_in=50, ramp=100)


@dataclass
class BinaryState:
    """Streaming state for the binary monitor; one instance per trial stream."""

    sched: RampSchedule = DEFAULT_SCHEDULE
    p: float = 0.5
    alpha: InitVar[float] = 0.05  # constructor inputs of a fresh ledger; not saved
    record_steps: InitVar[bool] = False
    n_trt: int = 0
    n_ctrl: int = 0
    e_trt: int = 0
    e_ctrl: int = 0
    i: int = 0  # observations consumed so far
    ledger: WealthLedger = None  # type: ignore[assignment]

    def __post_init__(self, alpha: float, record_steps: bool) -> None:
        check_open_unit("p", self.p)
        if self.ledger is None:
            self.ledger = WealthLedger(alpha, record_steps)

    def delta(self) -> float:
        """Running event-rate difference, treatment minus control.

        An arm with no patients yet contributes rate 0.5, so an empty trial
        has delta 0 and early one-sided enrollment stays bounded.
        """
        rate_trt = self.e_trt / self.n_trt if self.n_trt > 0 else 0.5
        rate_ctrl = self.e_ctrl / self.n_ctrl if self.n_ctrl > 0 else 0.5
        return rate_trt - rate_ctrl

    def wager(self, outcome: int, i: int) -> float:
        """Wager for the observation at index ``i`` given its outcome.

        Uses counts accumulated from observations 1..i-1 only.
        """
        c = self.sched.coefficient(i)
        d = self.delta()
        lam = 0.5 + 0.5 * c * d if outcome == 1 else 0.5 - 0.5 * c * d
        return clamp_wager(lam)

    def step(self, outcome: int, arm: int) -> None:
        """Consume one (outcome, arm) observation: bet, settle, then update counts.

        The first observation never bets.
        """
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        i = self.i = self.i + 1
        if i >= 2:
            self.ledger.bet(self.wager(outcome, i), arm, self.p, i)
        if arm == 1:
            self.n_trt += 1
            self.e_trt += 1 if outcome else 0  # an int, as a checkpoint saves it
        else:
            self.n_ctrl += 1
            self.e_ctrl += 1 if outcome else 0
